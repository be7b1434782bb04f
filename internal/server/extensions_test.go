package server

import (
	"encoding/json"
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
		return metricValue(t, ts.URL, `cyclerank_artifact_cache_entries{cache="score_vector"}`)
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

// metricValue scrapes /metrics and returns the value of one series.
func metricValue(t *testing.T, url, series string) string {
	t.Helper()
	_, rest, ok := strings.Cut(string(get(t, url+"/metrics")), "\n"+series+" ")
	if !ok {
		t.Fatalf("scrape has no %s", series)
	}
	value, _, _ := strings.Cut(rest, "\n")
	return value
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
