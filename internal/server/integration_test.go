package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// TestTableIThroughPlatform reproduces the paper's Table I the way a
// demo user would: submit the three-algorithm query set over HTTP,
// follow the comparison permalink, and read the top-5 columns — the
// full Figure-1 pipeline (gateway → task builder → scheduler →
// executors → datastore → status) in one pass.
func TestTableIThroughPlatform(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("enwiki-2018")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Registry: algo.NewBuiltinRegistry(),
		Catalog:  catalog,
		Store:    store,
		Workers:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	querySet := `{"tasks": [
		{"dataset": "enwiki-2018", "algorithm": "pagerank",  "params": {"alpha": 0.85}},
		{"dataset": "enwiki-2018", "algorithm": "cyclerank", "params": {"source": "Freddie Mercury", "k": 3, "scoring": "exp"}},
		{"dataset": "enwiki-2018", "algorithm": "ppr",       "params": {"source": "Freddie Mercury", "alpha": 0.3}}
	]}`
	resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(querySet))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var cmp compareResponse
	deadline := time.Now().Add(30 * time.Second)
	for !cmp.Done {
		if time.Now().After(deadline) {
			t.Fatal("query set did not finish")
		}
		r, err := http.Get(ts.URL + "/api/compare/" + sub.ComparisonID)
		if err != nil {
			t.Fatal(err)
		}
		cmp = compareResponse{}
		err = json.NewDecoder(r.Body).Decode(&cmp)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	byAlgo := map[string][]string{}
	for _, tv := range cmp.Tasks {
		if tv.Task.State != task.StateDone {
			t.Fatalf("%s failed: %s", tv.Task.Algorithm, tv.Task.Error)
		}
		var labels []string
		for i, e := range tv.Result.Top {
			if i >= 5 {
				break
			}
			labels = append(labels, e.Label)
		}
		byAlgo[tv.Task.Algorithm] = labels
	}

	// Table I, PageRank column: the five global hubs in order.
	wantPR := []string{"United States", "Animal", "Arthropod", "Association football", "Insect"}
	for i, want := range wantPR {
		if byAlgo["pagerank"][i] != want {
			t.Errorf("PR[%d] = %q, want %q", i, byAlgo["pagerank"][i], want)
		}
	}
	// Table I, CycleRank column: the band community in order.
	wantCR := []string{"Freddie Mercury", "Queen (band)", "Brian May", "Roger Taylor", "John Deacon"}
	for i, want := range wantCR {
		if byAlgo["cyclerank"][i] != want {
			t.Errorf("CR[%d] = %q, want %q", i, byAlgo["cyclerank"][i], want)
		}
	}
	// PPR surfaces at least one global hub; CycleRank surfaces none.
	hubs := map[string]bool{"United States": true, "HIV/AIDS": true, "Animal": true}
	leak := false
	for _, l := range byAlgo["ppr"] {
		if hubs[l] {
			leak = true
		}
	}
	if !leak {
		t.Errorf("PPR column shows no hub leak: %v", byAlgo["ppr"])
	}
	for _, l := range byAlgo["cyclerank"] {
		if hubs[l] {
			t.Errorf("CycleRank column contains hub %q", l)
		}
	}

	// And the quantified comparison endpoint agrees the two rankings
	// differ but overlap.
	var ag agreementResponse
	r := getJSON(t, ts.URL+"/api/compare/"+sub.ComparisonID+"/agreement?k=10", &ag)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("agreement status %d", r.StatusCode)
	}
	for _, p := range ag.Pairs {
		if p.AlgorithmA == "cyclerank" && p.AlgorithmB == "ppr" ||
			p.AlgorithmA == "ppr" && p.AlgorithmB == "cyclerank" {
			if p.Jaccard == 0 || p.Jaccard == 1 {
				t.Errorf("cyclerank/ppr jaccard = %v; expected partial overlap", p.Jaccard)
			}
		}
	}
}
