// Web client: drives the platform end-to-end over HTTP. Starts an
// embedded gateway, uploads a dataset, submits a query set comparing
// three algorithms, polls the comparison permalink until done, and
// prints the results — exactly the interaction loop of the demo's Web
// UI.
//
// Run with:
//
//	go run ./examples/webclient
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	cyclerank "github.com/cyclerank/cyclerank-go"
)

func main() {
	// Embedded platform: datastore, catalog, gateway with 2 workers.
	dir, err := os.MkdirTemp("", "crdemo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := cyclerank.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	catalog, err := cyclerank.LoadCatalog()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := cyclerank.NewServer(cyclerank.ServerConfig{
		Registry: cyclerank.NewRegistry(),
		Catalog:  catalog,
		Store:    store,
		Workers:  2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Println("gateway listening at", ts.URL)

	// 1. Upload a user dataset (CSV edge list), as the demo's upload
	//    page does.
	edgelist := strings.Join([]string{
		"alice,bob", "bob,alice",
		"bob,carol", "carol,bob",
		"carol,alice", "alice,carol",
		"alice,celebrity", "bob,celebrity", "carol,celebrity",
	}, "\n")
	resp, err := http.Post(ts.URL+"/api/datasets/friends", "text/csv", strings.NewReader(edgelist))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("uploaded dataset 'friends':", resp.Status)

	// 2. Submit a query set: the (dataset, algorithm, params) triples.
	querySet := `{"tasks": [
		{"dataset": "friends",     "algorithm": "cyclerank", "params": {"source": "alice", "k": 3}},
		{"dataset": "friends",     "algorithm": "ppr",       "params": {"source": "alice", "alpha": 0.85}},
		{"dataset": "enwiki-2018", "algorithm": "cyclerank", "params": {"source": "Fake news", "k": 3}}
	]}`
	resp, err = http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(querySet))
	if err != nil {
		log.Fatal(err)
	}
	var sub struct {
		ComparisonID string   `json:"comparison_id"`
		TaskIDs      []string `json:"task_ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("comparison id:", sub.ComparisonID)

	// 3. Poll the permalink until every task is terminal.
	type taskView struct {
		Task struct {
			Algorithm string `json:"algorithm"`
			Dataset   string `json:"dataset"`
			State     string `json:"state"`
			Error     string `json:"error"`
		} `json:"task"`
		Result *struct {
			Top []struct {
				Label string  `json:"label"`
				Score float64 `json:"score"`
			} `json:"top"`
		} `json:"result"`
	}
	var cmp struct {
		Done  bool       `json:"done"`
		Tasks []taskView `json:"tasks"`
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		r, err := http.Get(ts.URL + "/api/compare/" + sub.ComparisonID)
		if err != nil {
			log.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&cmp)
		r.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		if cmp.Done {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("timed out waiting for results")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 4. Render the side-by-side comparison.
	for _, tv := range cmp.Tasks {
		fmt.Printf("\n%s on %s [%s]\n", tv.Task.Algorithm, tv.Task.Dataset, tv.Task.State)
		if tv.Task.Error != "" {
			fmt.Println("  error:", tv.Task.Error)
			continue
		}
		if tv.Result == nil {
			continue
		}
		for i, e := range tv.Result.Top {
			if i >= 5 {
				break
			}
			fmt.Printf("  %d. %-30s %.5f\n", i+1, e.Label, e.Score)
		}
	}
}
