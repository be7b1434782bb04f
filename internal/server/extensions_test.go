package server

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/task"
)

func doReq(t *testing.T, method, url string, body string) *http.Response {
	t.Helper()
	var r *http.Request
	var err error
	if body == "" {
		r, err = http.NewRequest(method, url, nil)
	} else {
		r, err = http.NewRequest(method, url, strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestDeleteDataset(t *testing.T) {
	_, ts := newTestServer(t)
	// Upload then delete.
	resp, err := http.Post(ts.URL+"/api/datasets/todelete", "text/csv", strings.NewReader("a,b\nb,a\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp = doReq(t, http.MethodDelete, ts.URL+"/api/datasets/todelete", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	// Gone from listings and stats.
	resp = doReq(t, http.MethodGet, ts.URL+"/api/datasets/todelete", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted dataset still resolvable: %d", resp.StatusCode)
	}
	// Deleting catalog datasets is forbidden; unknown names 404.
	resp = doReq(t, http.MethodDelete, ts.URL+"/api/datasets/ring-1k", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("catalog delete status %d", resp.StatusCode)
	}
	resp = doReq(t, http.MethodDelete, ts.URL+"/api/datasets/never-existed", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown delete status %d", resp.StatusCode)
	}
}

// TestUploadRetiresCachedVectors follows a dataset's score vectors
// through the API: a repeated PageRank-family task is answered from
// the memo and says so (`cached`), and replacing or deleting the
// dataset drops the vectors of the graph it replaces.
func TestUploadRetiresCachedVectors(t *testing.T) {
	_, ts := newTestServer(t)
	upload := func(body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/datasets/mine", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("upload status %d", resp.StatusCode)
		}
	}
	pagerank := func() *task.Result {
		t.Helper()
		out, status := postTasks(t, ts.URL, `{"tasks": [{"dataset": "mine", "algorithm": "pagerank"}]}`)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		view := waitTask(t, ts.URL, out.TaskIDs[0])
		if view.Task.State != task.StateDone || view.Result == nil {
			t.Fatalf("pagerank ended %s (%s)", view.Task.State, view.Task.Error)
		}
		return view.Result
	}
	vectors := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		const series = `cyclerank_artifact_cache_entries{cache="score_vector"} `
		_, rest, ok := strings.Cut(string(data), series)
		if !ok {
			t.Fatalf("scrape has no %s", series)
		}
		n, _, _ := strings.Cut(rest, "\n")
		return n
	}

	upload("a,b\nb,a\nb,c\n")
	first := pagerank()
	if first.Cached {
		t.Fatal("first run on a fresh upload marked cached")
	}
	again := pagerank()
	if !again.Cached || !reflect.DeepEqual(again.Top, first.Top) || again.Iterations != first.Iterations {
		t.Fatalf("repeat run: cached=%v top=%v iterations=%d, want the first run's answer from the memo (%v, %d)",
			again.Cached, again.Top, again.Iterations, first.Top, first.Iterations)
	}
	if got := vectors(); got != "1" {
		t.Fatalf("%s memoized vectors, want 1", got)
	}

	upload("a,b\nb,c\nc,a\nc,d\n") // same name, another graph
	if got := vectors(); got != "0" {
		t.Fatalf("%s memoized vectors survive the re-upload, want 0", got)
	}
	if replaced := pagerank(); replaced.Cached || replaced.GraphNodes != 4 {
		t.Fatalf("after re-upload: cached=%v on %d nodes, want a fresh run on 4", replaced.Cached, replaced.GraphNodes)
	}

	resp := doReq(t, http.MethodDelete, ts.URL+"/api/datasets/mine", "")
	resp.Body.Close()
	if got := vectors(); got != "0" {
		t.Fatalf("%s memoized vectors survive the delete, want 0", got)
	}
}

func TestCancelTaskEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"tasks": [{"dataset": "complete-50", "algorithm": "pagerank"}]}`
	resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()

	// Cancelling (whether still pending or already done) returns the
	// current snapshot; unknown ids 404.
	resp = doReq(t, http.MethodDelete, ts.URL+"/api/tasks/"+sub.TaskIDs[0], "")
	var tv taskView
	json.NewDecoder(resp.Body).Decode(&tv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	if tv.Task.ID != sub.TaskIDs[0] {
		t.Errorf("cancel returned wrong task %q", tv.Task.ID)
	}
	resp = doReq(t, http.MethodDelete, ts.URL+"/api/tasks/ghost", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel status %d", resp.StatusCode)
	}
}

func TestAgreementEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"tasks": [
		{"dataset": "complete-50", "algorithm": "pagerank"},
		{"dataset": "complete-50", "algorithm": "cheirank"},
		{"dataset": "complete-50", "algorithm": "2drank"}
	]}`
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

	var ag agreementResponse
	r := getJSON(t, ts.URL+"/api/compare/"+sub.ComparisonID+"/agreement?k=5", &ag)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("agreement status %d", r.StatusCode)
	}
	if len(ag.Pairs) != 3 { // C(3,2)
		t.Fatalf("pairs = %d", len(ag.Pairs))
	}
	for _, p := range ag.Pairs {
		if p.Jaccard < 0 || p.Jaccard > 1 || p.RBO < 0 || p.RBO > 1 {
			t.Errorf("metrics out of bounds: %+v", p)
		}
		if len(p.OverlapCurve) == 0 {
			t.Error("missing overlap curve")
		}
	}
	// On the symmetric complete digraph PageRank and CheiRank agree
	// perfectly.
	if ag.Pairs[0].Jaccard != 1 {
		t.Errorf("pagerank vs cheirank on complete digraph: jaccard = %v", ag.Pairs[0].Jaccard)
	}

	// Bad depth.
	r = getJSON(t, ts.URL+"/api/compare/"+sub.ComparisonID+"/agreement?k=zero", nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k status %d", r.StatusCode)
	}
	// Unknown query set.
	r = getJSON(t, ts.URL+"/api/compare/ghost/agreement", nil)
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown set status %d", r.StatusCode)
	}
}

func TestAgreementNeedsTwoCompletedTasks(t *testing.T) {
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
		time.Sleep(10 * time.Millisecond)
	}
	r := getJSON(t, ts.URL+"/api/compare/"+sub.ComparisonID+"/agreement", nil)
	if r.StatusCode != http.StatusConflict {
		t.Errorf("single-task agreement status %d", r.StatusCode)
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var st statusResponse
	r := getJSON(t, ts.URL+"/api/status", &st)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if st.Datasets != 2 || st.Algorithms != 11 {
		t.Errorf("status = %+v", st)
	}
	if st.Scheduler.Workers != 2 {
		t.Errorf("workers = %d", st.Scheduler.Workers)
	}
	// After running a task, done count reflects it.
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
		getJSON(t, ts.URL+"/api/status", &st)
		if st.Scheduler.Done == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Scheduler.Done != 1 {
		t.Errorf("done = %d after task completion", st.Scheduler.Done)
	}
}

func TestEgoNetEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var ego egoResponse
	r := getJSON(t, ts.URL+"/api/datasets/ring-1k/ego?node=5&radius=2", &ego)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("ego status %d", r.StatusCode)
	}
	// On a directed ring, radius 2 both ways covers 5 nodes / 4 edges.
	if len(ego.Nodes) != 5 || len(ego.Edges) != 4 {
		t.Errorf("ego nodes=%d edges=%d, want 5/4", len(ego.Nodes), len(ego.Edges))
	}
	if ego.Nodes[0] != "5" {
		t.Errorf("center not first: %v", ego.Nodes[0])
	}

	for url, want := range map[string]int{
		"/api/datasets/ghost/ego?node=5":                http.StatusNotFound,
		"/api/datasets/ring-1k/ego?node=zzz":            http.StatusBadRequest,
		"/api/datasets/ring-1k/ego?node=5&radius=9":     http.StatusBadRequest,
		"/api/datasets/complete-50/ego?node=0&radius=0": http.StatusOK,
	} {
		r := getJSON(t, ts.URL+url, nil)
		if r.StatusCode != want {
			t.Errorf("%s: status %d, want %d", url, r.StatusCode, want)
		}
	}
}

func TestCyclesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// complete-50: plenty of short cycles through node "0".
	resp := doReq(t, http.MethodPost, ts.URL+"/api/cycles",
		`{"dataset": "complete-50", "source": "0", "k": 3, "limit": 5}`)
	var cy cyclesResponse
	if err := json.NewDecoder(resp.Body).Decode(&cy); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cycles status %d", resp.StatusCode)
	}
	if len(cy.Cycles) != 5 {
		t.Errorf("listed %d cycles, want 5 (limit)", len(cy.Cycles))
	}
	if cy.Total <= 5 {
		t.Errorf("total = %d, want full count", cy.Total)
	}
	// Shortest first; closed sequence (first == last label).
	first := cy.Cycles[0]
	if first.Length != 2 {
		t.Errorf("first cycle length %d", first.Length)
	}
	if first.Nodes[0] != first.Nodes[len(first.Nodes)-1] {
		t.Errorf("cycle not closed: %v", first.Nodes)
	}

	// Drill-down through a specific node.
	resp = doReq(t, http.MethodPost, ts.URL+"/api/cycles",
		`{"dataset": "complete-50", "source": "0", "node": "7", "k": 2, "limit": 10}`)
	cy = cyclesResponse{}
	json.NewDecoder(resp.Body).Decode(&cy)
	resp.Body.Close()
	if len(cy.Cycles) != 1 {
		t.Errorf("drill-down found %d cycles, want exactly the 0<->7 pair", len(cy.Cycles))
	}

	// Errors.
	for body, wantStatus := range map[string]int{
		`{`:                                   http.StatusBadRequest,
		`{"dataset": "ghost", "source": "0"}`: http.StatusNotFound,
		`{"dataset": "complete-50", "source": "nobody"}`:              http.StatusBadRequest,
		`{"dataset": "complete-50", "source": "0", "node": "nobody"}`: http.StatusBadRequest,
	} {
		resp := doReq(t, http.MethodPost, ts.URL+"/api/cycles", body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("body %s: status %d, want %d", body, resp.StatusCode, wantStatus)
		}
	}
}
