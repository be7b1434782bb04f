package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50", "ring-1k")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Registry: algo.NewBuiltinRegistry(),
		Catalog:  catalog,
		Store:    store,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last in, first out: the HTTP server closes, then
	// the server and its scheduler stop, and only then is the store's
	// temp dir removed, so no task still writes into it.
	t.Cleanup(func() { closeWithin(t, s, 5*time.Second) })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var algos []algorithmInfo
	resp := getJSON(t, ts.URL+"/api/algorithms", &algos)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(algos) != 11 {
		t.Errorf("got %d algorithms, want 11", len(algos))
	}
	var foundCR, foundTarget, foundPair bool
	for _, a := range algos {
		switch a.Name {
		case "cyclerank":
			foundCR = a.NeedsSource
		case "ppr-target":
			foundTarget = a.NeedsTarget && !a.NeedsSource
		case "bippr-pair":
			foundPair = a.NeedsTarget && a.NeedsSource
		}
	}
	if !foundCR {
		t.Error("cyclerank missing or not flagged as personalized")
	}
	if !foundTarget {
		t.Error("ppr-target missing or incorrectly flagged")
	}
	if !foundPair {
		t.Error("bippr-pair missing or incorrectly flagged")
	}
}

// TestTargetQueriesThroughScheduler runs the two bidirectional
// algorithms end-to-end: submit, execute on the worker pool, persist,
// poll. complete-50 is unlabeled, so decimal ids act as labels.
func TestTargetQueriesThroughScheduler(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"tasks": [
		{"dataset": "complete-50", "algorithm": "ppr-target",
		 "params": {"target": "7"}},
		{"dataset": "complete-50", "algorithm": "bippr-pair",
		 "params": {"source": "3", "target": "7", "walks": 200}}
	]}`
	resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var cmp compareResponse
	for {
		getJSON(t, ts.URL+"/api/compare/"+sub.ComparisonID, &cmp)
		if cmp.Done || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !cmp.Done {
		t.Fatal("query set did not finish in time")
	}
	if len(cmp.Tasks) != 2 {
		t.Fatalf("got %d tasks, want 2", len(cmp.Tasks))
	}
	for _, view := range cmp.Tasks {
		if view.Task.State != task.StateDone {
			t.Fatalf("%s finished %s: %s", view.Task.Algorithm, view.Task.State, view.Task.Error)
		}
		if view.Result == nil || len(view.Result.Top) == 0 {
			t.Fatalf("%s produced no result rows", view.Task.Algorithm)
		}
	}
	// On a complete digraph every pair looks alike: π(3,7) must agree
	// with ppr-target's estimate for source 3 (additive rmax error).
	var targetScore, pairScore float64
	for _, view := range cmp.Tasks {
		switch view.Task.Algorithm {
		case "ppr-target":
			for _, e := range view.Result.Top {
				if e.Label == "3" {
					targetScore = e.Score
				}
			}
		case "bippr-pair":
			pairScore = view.Result.Top[0].Score
		}
	}
	if targetScore == 0 || pairScore == 0 {
		t.Fatalf("missing scores: target=%g pair=%g", targetScore, pairScore)
	}
	if diff := pairScore - targetScore; diff < -1e-3 || diff > 1e-3 {
		t.Errorf("pair %g and target %g estimates disagree", pairScore, targetScore)
	}
}

func TestDatasetsEndpointAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	var ds []datasetInfo
	getJSON(t, ts.URL+"/api/datasets", &ds)
	if len(ds) != 2 {
		t.Fatalf("got %d datasets: %+v", len(ds), ds)
	}
	var stats datasetStats
	resp := getJSON(t, ts.URL+"/api/datasets/complete-50", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if stats.Stats.Nodes != 50 || stats.Stats.Edges != 50*49 {
		t.Errorf("stats = %+v", stats.Stats)
	}
	resp = getJSON(t, ts.URL+"/api/datasets/ghost", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing dataset status = %d", resp.StatusCode)
	}
}

// TestDatasetStatsThroughGraphCache: GET /api/datasets/{name} reads
// the graph the scheduler's cache holds, so a repeated GET loads
// nothing, and serves the stats of a fresh load of the dataset. An
// upload's graph and stats are what a GET of its name serves, until a
// re-upload replaces them or a delete removes the name.
func TestDatasetStatsThroughGraphCache(t *testing.T) {
	s, ts := newTestServer(t)
	const loads = "cyclerank_scheduler_graph_loads_total"
	statsDoc := func(name string, g *graph.Graph) []byte {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, datasetStats{Name: name, Stats: graph.ComputeStats(g)})
		return rec.Body.Bytes()
	}

	first := get(t, ts.URL+"/api/datasets/complete-50")
	loaded := metricValue(t, ts.URL, loads)
	if loaded != "1" {
		t.Fatalf("%s = %s after the first GET, want 1", loads, loaded)
	}
	if again := get(t, ts.URL+"/api/datasets/complete-50"); !bytes.Equal(again, first) {
		t.Errorf("second GET served another document:\n%s\nfirst:\n%s", again, first)
	}
	if got := metricValue(t, ts.URL, loads); got != loaded {
		t.Errorf("%s moved %s -> %s on a repeated GET", loads, loaded, got)
	}
	d, err := s.catalog.Get("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if want := statsDoc("complete-50", fresh); !bytes.Equal(first, want) {
		t.Errorf("GET served\n%s\nwant the stats of a fresh load\n%s", first, want)
	}

	for _, body := range []string{"a,b\nb,a\n", "a,b\nb,c\nc,a\nc,d\n"} {
		if status := upload(t, ts.URL, "mine", body); status != http.StatusCreated {
			t.Fatalf("upload status %d", status)
		}
		g, err := formats.Parse([]byte(body), formats.FormatEdgeList)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := get(t, ts.URL+"/api/datasets/mine"), statsDoc("mine", g); !bytes.Equal(got, want) {
			t.Errorf("after uploading %q GET served\n%s\nwant\n%s", body, got, want)
		}
	}
	if got := metricValue(t, ts.URL, loads); got != loaded {
		t.Errorf("%s moved %s -> %s reading uploads' stats", loads, loaded, got)
	}
	resp := doReq(t, http.MethodDelete, ts.URL+"/api/datasets/mine", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/api/datasets/mine", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("GET after delete: status %d, want 404", r.StatusCode)
	}
}

// TestRemovedRoutes: the ego-net and cycle-listing routes are gone.
func TestRemovedRoutes(t *testing.T) {
	_, ts := newTestServer(t)
	for _, req := range []struct{ method, path, body string }{
		{http.MethodGet, "/api/datasets/complete-50/ego?node=0", ""},
		{http.MethodPost, "/api/cycles", `{"dataset": "complete-50", "source": "0"}`},
	} {
		resp := doReq(t, req.method, ts.URL+req.path, req.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 404 or 405", req.method, req.path, resp.StatusCode)
		}
	}
}

func TestSubmitPollCompareFlow(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"tasks": [
		{"dataset": "complete-50", "algorithm": "pagerank", "params": {"alpha": 0.85}},
		{"dataset": "complete-50", "algorithm": "cyclerank", "params": {"source": "0", "k": 3}}
	]}`
	resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if len(sub.TaskIDs) != 2 || sub.ComparisonID == "" {
		t.Fatalf("submit response %+v", sub)
	}

	// Poll the comparison until done.
	deadline := time.Now().Add(10 * time.Second)
	var cmp compareResponse
	for {
		getJSON(t, ts.URL+"/api/compare/"+sub.ComparisonID, &cmp)
		if cmp.Done || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !cmp.Done {
		t.Fatal("comparison did not finish in time")
	}
	for _, v := range cmp.Tasks {
		if v.Task.State != task.StateDone {
			t.Errorf("task %s state %s error %q", v.Task.Algorithm, v.Task.State, v.Task.Error)
			continue
		}
		if v.Result == nil || len(v.Result.Top) == 0 {
			t.Errorf("task %s missing result", v.Task.Algorithm)
		}
	}

	// Individual task view with log.
	var tv taskView
	getJSON(t, ts.URL+"/api/tasks/"+sub.TaskIDs[0]+"?log=1", &tv)
	if tv.Log == "" {
		t.Error("task log empty")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]string{
		"bad json":        `{"tasks": [`,
		"empty set":       `{"tasks": []}`,
		"unknown dataset": `{"tasks": [{"dataset": "nope", "algorithm": "pagerank"}]}`,
		"unknown algo":    `{"tasks": [{"dataset": "complete-50", "algorithm": "nope"}]}`,
		"missing source":  `{"tasks": [{"dataset": "complete-50", "algorithm": "cyclerank"}]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestUploadFlow(t *testing.T) {
	_, ts := newTestServer(t)
	edgelist := "x,y\ny,x\ny,z\nz,y\nz,x\nx,z\n"
	resp, err := http.Post(ts.URL+"/api/datasets/mygraph", "text/csv", strings.NewReader(edgelist))
	if err != nil {
		t.Fatal(err)
	}
	var stats datasetStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	if stats.Stats.Nodes != 3 || stats.Stats.Edges != 6 {
		t.Errorf("uploaded stats %+v", stats.Stats)
	}

	// The uploaded dataset is usable in tasks.
	body := `{"tasks": [{"dataset": "mygraph", "algorithm": "cyclerank", "params": {"source": "x"}}]}`
	resp, err = http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit on upload status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tv taskView
		getJSON(t, ts.URL+"/api/tasks/"+sub.TaskIDs[0], &tv)
		if tv.Task.State.Terminal() {
			if tv.Task.State != task.StateDone {
				t.Fatalf("task failed: %s", tv.Task.Error)
			}
			if tv.Result.Top[0].Label != "x" {
				t.Errorf("top = %v", tv.Result.Top[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("upload task did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Uploads are listed.
	var ds []datasetInfo
	getJSON(t, ts.URL+"/api/datasets", &ds)
	foundUpload := false
	for _, d := range ds {
		if d.Name == "mygraph" && d.Uploaded {
			foundUpload = true
		}
	}
	if !foundUpload {
		t.Error("uploaded dataset not listed")
	}
}

func TestUploadErrors(t *testing.T) {
	_, ts := newTestServer(t)
	// Overwriting a catalog dataset is forbidden.
	resp, err := http.Post(ts.URL+"/api/datasets/complete-50", "text/csv", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("catalog overwrite status = %d, want 409", resp.StatusCode)
	}
	// Garbage bodies are rejected.
	resp, err = http.Post(ts.URL+"/api/datasets/bad", "text/csv", strings.NewReader("one two three four\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload status = %d, want 400", resp.StatusCode)
	}
	// Explicit bogus format is rejected.
	resp, err = http.Post(ts.URL+"/api/datasets/bad?format=bogus", "text/csv", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format status = %d, want 400", resp.StatusCode)
	}
}

func TestUploadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("ring-1k")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Registry: algo.NewBuiltinRegistry(), Catalog: catalog, Store: store}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	resp, err := http.Post(ts1.URL+"/api/datasets/persisted", "text/csv", strings.NewReader("a,b\nb,a\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts1.Close()
	s1.Close()

	// "Restart": a new server over the same store.
	store2, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store2
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	var stats datasetStats
	r2 := getJSON(t, ts2.URL+"/api/datasets/persisted", &stats)
	if r2.StatusCode != http.StatusOK {
		t.Errorf("persisted dataset lost after restart: %d", r2.StatusCode)
	}
}

func TestHTMLPages(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/", "/instructions"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
		if !strings.Contains(body.String(), "CycleRank demo") {
			t.Errorf("%s missing title", path)
		}
	}
	resp, err := http.Get(ts.URL + "/no-such-page")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown page status %d", resp.StatusCode)
	}
}

func TestComparePageRendersResults(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"tasks": [{"dataset": "complete-50", "algorithm": "pagerank"}]}`
	resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		var cmp compareResponse
		getJSON(t, ts.URL+"/api/compare/"+sub.ComparisonID, &cmp)
		if cmp.Done || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	page, err := http.Get(ts.URL + "/compare/" + sub.ComparisonID)
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(page.Body)
	page.Body.Close()
	if !strings.Contains(buf.String(), sub.ComparisonID) {
		t.Error("compare page missing comparison id")
	}
	if !strings.Contains(buf.String(), "pagerank") {
		t.Error("compare page missing algorithm")
	}
	// Unknown comparison 404s.
	missing, err := http.Get(ts.URL + "/compare/does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown compare page status %d", missing.StatusCode)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted empty config")
	}
}

// TestRequestBodyOneJSONValue: a JSON request body is one value of at
// most 1 MiB. Bytes other than whitespace after the value are a 400,
// not a silently ignored tail — a second query set never runs — and an
// oversize body is a 413, as an oversize upload is.
func TestRequestBodyOneJSONValue(t *testing.T) {
	s, ts := newTestServer(t)
	const set = `{"tasks":[{"dataset":"complete-50","algorithm":"pagerank"}]}`
	oversize := `{"dataset":"` + strings.Repeat("a", 1<<20) + `"}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"submit", "/api/tasks", set, http.StatusAccepted},
		{"submit, trailing whitespace", "/api/tasks", set + " \n\t", http.StatusAccepted},
		{"submit, two query sets", "/api/tasks", set + " " + set, http.StatusBadRequest},
		{"submit, trailing garbage", "/api/tasks", set + " not json", http.StatusBadRequest},
		{"submit, stray brace", "/api/tasks", set + "}", http.StatusBadRequest},
		{"submit, oversize", "/api/tasks", oversize, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Only the two accepted submissions registered a task.
	if got := s.Scheduler().AdmissionStats().AdmittedInteractive; got != 2 {
		t.Errorf("admitted_interactive = %d, want 2", got)
	}
}
