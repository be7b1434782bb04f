package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// newPersistentServer builds a server the way deployments do: no
// explicit registry, so the bidirectional estimator runs over the
// server's persistent two-tier index store rooted at dir.
func newPersistentServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog, Store: store, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWithin(t, s, 5*time.Second) })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postTasks submits a request body and decodes the response.
func postTasks(t *testing.T, url, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/api/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// waitTask polls a task until it is terminal.
func waitTask(t *testing.T, url, id string) taskView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var view taskView
		getJSON(t, url+"/api/tasks/"+id, &view)
		if view.Task.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s still %s after 15s", id, view.Task.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchSubmissionEndToEnd drives the queries array through the
// HTTP API: one batch task, per-query status, per-subquery results.
func TestBatchSubmissionEndToEnd(t *testing.T) {
	_, ts := newPersistentServer(t, t.TempDir())

	out, status := postTasks(t, ts.URL, `{
		"dataset": "complete-50", "algorithm": "ppr-target",
		"queries": [
			{"params": {"target": "0"}},
			{"params": {"target": "1"}},
			{"algorithm": "bippr-pair", "params": {"source": "2", "target": "0", "walks": 200}}
		]
	}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if len(out.TaskIDs) != 1 {
		t.Fatalf("batch produced %d task ids, want 1", len(out.TaskIDs))
	}

	view := waitTask(t, ts.URL, out.TaskIDs[0])
	if view.Task.State != task.StateDone {
		t.Fatalf("batch state %s (error %q)", view.Task.State, view.Task.Error)
	}
	if view.Task.QueriesDone != 3 || len(view.Task.QueryStates) != 3 {
		t.Fatalf("per-query status: done=%d states=%v", view.Task.QueriesDone, view.Task.QueryStates)
	}
	for i, st := range view.Task.QueryStates {
		if st != task.StateDone {
			t.Errorf("query state[%d] = %s", i, st)
		}
	}
	if view.Result == nil || len(view.Result.Queries) != 3 {
		t.Fatalf("result missing per-subquery entries: %+v", view.Result)
	}
	for i, sub := range view.Result.Queries {
		if sub.State != task.StateDone {
			t.Errorf("subresult %d state %s (error %q)", i, sub.State, sub.Error)
		}
	}
	// The third query inherited nothing: it named bippr-pair itself.
	if view.Result.Queries[2].Algorithm != "bippr-pair" {
		t.Errorf("subresult 2 algorithm %q", view.Result.Queries[2].Algorithm)
	}
	if len(view.Result.Queries[0].Top) == 0 {
		t.Error("ppr-target subresult has empty top list")
	}
}

func TestBatchSubmissionValidation(t *testing.T) {
	_, ts := newPersistentServer(t, t.TempDir())
	for name, body := range map[string]string{
		"unknown dataset":   `{"dataset": "nope", "algorithm": "ppr-target", "queries": [{"params": {"target": "0"}}]}`,
		"missing dataset":   `{"algorithm": "ppr-target", "queries": [{"params": {"target": "0"}}]}`,
		"missing target":    `{"dataset": "complete-50", "algorithm": "ppr-target", "queries": [{"params": {}}]}`,
		"unknown algorithm": `{"dataset": "complete-50", "queries": [{"algorithm": "nope", "params": {"target": "0"}}]}`,
		"top-level params":  `{"dataset": "complete-50", "algorithm": "ppr-target", "params": {"alpha": 0.5}, "queries": [{"params": {"target": "0"}}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, status := postTasks(t, ts.URL, body); status != http.StatusBadRequest {
				t.Errorf("status %d, want 400", status)
			}
		})
	}
	// tasks and queries combine into one query set.
	out, status := postTasks(t, ts.URL, `{
		"tasks": [{"dataset": "complete-50", "algorithm": "pagerank", "params": {}}],
		"dataset": "complete-50", "algorithm": "ppr-target",
		"queries": [{"params": {"target": "0"}}]
	}`)
	if status != http.StatusAccepted || len(out.TaskIDs) != 2 {
		t.Fatalf("combined submission: status %d, ids %v", status, out.TaskIDs)
	}
	// Drain before the TempDir cleanup races the executors' writes.
	for _, id := range out.TaskIDs {
		waitTask(t, ts.URL, id)
	}
}

// TestBatchParallelismAndWalkReuseEndToEnd drives the new knobs
// through the HTTP API: a parallelism'd batch of walk_reuse pair
// queries from one source completes with one recorded walk pass, the
// task view echoes the parallelism, and /api/status surfaces the
// endpoint-cache counters.
func TestBatchParallelismAndWalkReuseEndToEnd(t *testing.T) {
	_, ts := newPersistentServer(t, t.TempDir())

	out, status := postTasks(t, ts.URL, `{
		"dataset": "complete-50", "algorithm": "bippr-pair", "parallelism": 1,
		"queries": [
			{"params": {"source": "2", "target": "0", "walks": 512, "walk_reuse": true}},
			{"params": {"source": "2", "target": "1", "walks": 512, "walk_reuse": true}},
			{"params": {"source": "2", "target": "3", "walks": 512, "walk_reuse": true}}
		]
	}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	view := waitTask(t, ts.URL, out.TaskIDs[0])
	if view.Task.State != task.StateDone {
		t.Fatalf("batch state %s (error %q)", view.Task.State, view.Task.Error)
	}
	if view.Task.Parallelism != 1 {
		t.Errorf("task parallelism = %d, want the submitted 1", view.Task.Parallelism)
	}
	for i, sub := range view.Result.Queries {
		if sub.State != task.StateDone {
			t.Errorf("subresult %d state %s (error %q)", i, sub.State, sub.Error)
		}
	}

	var st statusResponse
	getJSON(t, ts.URL+"/api/status", &st)
	// Sequential batch: the first pair query records the source's walk
	// pass, the two later targets re-weight it.
	if st.EndpointCache.Misses != 1 {
		t.Errorf("endpoint misses = %d, want 1 (one walk pass for the shared source)", st.EndpointCache.Misses)
	}
	if st.EndpointCache.Hits != 2 {
		t.Errorf("endpoint hits = %d, want 2", st.EndpointCache.Hits)
	}
	if st.EndpointCache.WalksAvoided != 2*512 {
		t.Errorf("walks avoided = %d, want %d", st.EndpointCache.WalksAvoided, 2*512)
	}
	// The queries loaded one dataset; its row must report the real
	// residency, layout view included.
	if len(st.Graphs) != 1 || st.Graphs[0].Name != "complete-50" {
		t.Fatalf("status graphs = %+v, want one row for complete-50", st.Graphs)
	}
	if row := st.Graphs[0]; row.Nodes != 50 || row.LayoutBytes == 0 || row.MemoryBytes <= row.LayoutBytes {
		t.Errorf("graph row %+v: want 50 nodes and memory_bytes > layout_bytes > 0", row)
	}

	// Invalid parallelism is rejected at submission.
	if _, status := postTasks(t, ts.URL, `{
		"dataset": "complete-50", "algorithm": "ppr-target", "parallelism": -2,
		"queries": [{"params": {"target": "0"}}]
	}`); status != http.StatusBadRequest {
		t.Errorf("negative parallelism: status %d, want 400", status)
	}
	// Top-level parallelism without a top-level queries array would be
	// silently dropped (it does not reach tasks-array batches); the
	// handler rejects it instead, like stray top-level params.
	if _, status := postTasks(t, ts.URL, `{
		"parallelism": 2,
		"tasks": [{"dataset": "complete-50", "algorithm": "pagerank", "params": {}}]
	}`); status != http.StatusBadRequest {
		t.Errorf("top-level parallelism without queries: status %d, want 400", status)
	}
}

// TestIndexPersistenceAcrossServerRestart is the acceptance
// integration test at the platform level: a target query asked once
// leaves no artifact, asked twice before a restart it leaves one; the
// restarted server serves the same query from the disk tier with zero
// reverse-push work, visible in /api/status.
func TestIndexPersistenceAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	submit := `{"dataset": "complete-50", "algorithm": "ppr-target",
		"queries": [{"params": {"target": "7"}}]}`

	s1, ts1 := newPersistentServer(t, dir)
	var before taskView
	var st1 statusResponse
	for touch := 1; touch <= 2; touch++ {
		out, status := postTasks(t, ts1.URL, submit)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		before = waitTask(t, ts1.URL, out.TaskIDs[0])
		if before.Task.State != task.StateDone {
			t.Fatalf("pre-restart task %s (%s)", before.Task.State, before.Task.Error)
		}
		getJSON(t, ts1.URL+"/api/status", &st1)
		if touch == 1 && st1.IndexStore.DiskWrites != 0 {
			t.Fatalf("index persisted on its first touch: %+v", st1.IndexStore)
		}
	}
	if st1.IndexStore.Misses != 1 || st1.IndexStore.DiskWrites != 1 {
		t.Fatalf("pre-restart index stats %+v, want one miss and one persisted artifact", st1.IndexStore)
	}
	ts1.Close()
	s1.Close()

	// Restart: fresh server process over the same datastore.
	_, ts2 := newPersistentServer(t, dir)
	out2, status := postTasks(t, ts2.URL, submit)
	if status != http.StatusAccepted {
		t.Fatalf("post-restart submit status %d", status)
	}
	after := waitTask(t, ts2.URL, out2.TaskIDs[0])
	if after.Task.State != task.StateDone {
		t.Fatalf("post-restart task %s (%s)", after.Task.State, after.Task.Error)
	}

	var st2 statusResponse
	getJSON(t, ts2.URL+"/api/status", &st2)
	if st2.IndexStore.DiskHits != 1 {
		t.Errorf("post-restart disk hits = %d, want 1", st2.IndexStore.DiskHits)
	}
	if st2.IndexStore.Misses != 0 {
		t.Errorf("post-restart misses = %d, want 0 (no reverse push after restart)", st2.IndexStore.Misses)
	}
	if st2.IndexStore.DiskFiles < 1 || st2.IndexStore.DiskBytes <= 0 {
		t.Errorf("post-restart disk usage (%d files, %d bytes), want the persisted artifact visible",
			st2.IndexStore.DiskFiles, st2.IndexStore.DiskBytes)
	}

	// Identical rankings from the restored index.
	if len(before.Result.Queries) != 1 || len(after.Result.Queries) != 1 {
		t.Fatal("missing subresults")
	}
	b, a := before.Result.Queries[0], after.Result.Queries[0]
	if len(b.Top) != len(a.Top) {
		t.Fatalf("top sizes differ: %d vs %d", len(b.Top), len(a.Top))
	}
	for i := range b.Top {
		if b.Top[i] != a.Top[i] {
			t.Errorf("top[%d] differs after restart: %+v vs %+v", i, b.Top[i], a.Top[i])
		}
	}
}
