package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// runOneTask submits a single bippr pair query and waits for it.
func runOneTask(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	body := `{"tasks": [{"dataset": "complete-50", "algorithm": "bippr-pair",
		"params": {"source": "0", "target": "1", "walks": 256}}]}`
	resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if len(sub.TaskIDs) != 1 {
		t.Fatalf("submit response %+v", sub)
	}
	id := sub.TaskIDs[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tv taskView
		getJSON(t, ts.URL+"/api/tasks/"+id, &tv)
		if tv.Task.State.Terminal() {
			if tv.Task.State != "done" {
				t.Fatalf("task state %s (error %q)", tv.Task.State, tv.Task.Error)
			}
			return id
		}
		if time.Now().After(deadline) {
			t.Fatal("task did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsEndpoint scrapes /metrics after real work and checks the
// output is well-formed Prometheus text carrying every component's
// families — the scrape merges the process registry with the
// scheduler, index store, endpoint cache, datastore and server ones.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	runOneTask(t, ts)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.CheckExposition(data)
	if err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	got := make(map[string]bool, len(families))
	for _, f := range families {
		got[f] = true
	}
	for _, want := range []string{
		// One representative family per instrumented component.
		"cyclerank_bippr_reverse_push_runs_total", // bippr hot path
		"cyclerank_scheduler_tasks_total",         // scheduler workload
		"cyclerank_artifact_cache_hits_total",     // index store + endpoint cache
		"cyclerank_datastore_fsyncs_total",        // datastore
		"cyclerank_prewarm_nodes_done_total",      // server lifecycle
		"cyclerank_artifact_gc_sweeps_total",      // artifact GC
		"cyclerank_scheduler_task_run_seconds",    // latency histograms render
		"cyclerank_endpoint_cache_walks_avoided_total",
	} {
		if !got[want] {
			t.Errorf("scrape missing family %s (have %v)", want, families)
		}
	}
	// The algorithm registry's score-vector memo is merged in too.
	if !strings.Contains(string(data), `cyclerank_artifact_cache_entries{cache="score_vector"} 0`) {
		t.Error("score-vector memo series missing from scrape")
	}
	// The task that just ran must be visible in the counters.
	if !strings.Contains(string(data), `cyclerank_scheduler_tasks_total{state="done"} 1`) {
		t.Error("done-task counter not reflected in scrape")
	}
}

// TestTaskViewReportsPhasesAndTiming checks the API satellite: a done
// task's JSON carries wait_ms/run_ms and its result the phase tree.
func TestTaskViewReportsPhasesAndTiming(t *testing.T) {
	_, ts := newTestServer(t)
	id := runOneTask(t, ts)

	resp, err := http.Get(ts.URL + "/api/tasks/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Task struct {
			WaitMS *int64 `json:"wait_ms"`
			RunMS  *int64 `json:"run_ms"`
		} `json:"task"`
		Result *struct {
			Phases []obs.SpanNode `json:"phases"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	// wait_ms/run_ms are omitempty, so a 0ms run may legitimately drop
	// them; the task above pushes and walks, making run_ms volatile —
	// assert on presence of the result phases, the stable signal.
	if raw.Result == nil || len(raw.Result.Phases) == 0 {
		t.Fatalf("task view carries no phases: %+v", raw)
	}
	names := make(map[string]bool)
	for _, n := range raw.Result.Phases {
		names[n.Name] = true
	}
	if !names["reverse_push"] && !names["walks"] {
		t.Fatalf("phase names %v lack bippr phases", names)
	}
}

// TestStatusJSONBackCompat locks the exact key set of every migrated
// /api/status row: moving the counters into the obs registry must not
// rename, drop or add JSON fields that existing dashboards parse.
func TestStatusJSONBackCompat(t *testing.T) {
	s, ts := newTestServer(t)
	// Load a dataset so the graphs array carries a row to pin.
	if _, err := s.Scheduler().LoadGraph("complete-50"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	keysOf := func(field string) map[string]bool {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw[field], &m); err != nil {
			t.Fatalf("row %q: %v", field, err)
		}
		out := make(map[string]bool, len(m))
		for k := range m {
			out[k] = true
		}
		return out
	}
	want := map[string][]string{
		"index_store": {"memory_hits", "disk_hits", "misses", "disk_writes",
			"disk_bytes_written", "disk_errors", "memory_entries",
			"disk_files", "disk_bytes"},
		"endpoint_cache": {"hits", "misses", "entries", "pairs",
			"walks_avoided", "disk_hits", "disk_writes",
			"disk_bytes_written", "disk_errors", "disk_files", "disk_bytes"},
		"prewarm": {"state", "datasets_total", "datasets_done", "nodes_total",
			"nodes_done", "indexes_warm", "indexes_computed", "endpoints_warm",
			"endpoints_recorded", "errors",
			"learned_keys", "learned_warmed", "learned_errors"},
		"artifact_gc": {"cap_bytes", "sweeps", "last_sweep"},
	}
	for row, fields := range want {
		got := keysOf(row)
		for _, f := range fields {
			if !got[f] {
				t.Errorf("status row %q lost key %q (have %v)", row, f, got)
			}
			delete(got, f)
		}
		for extra := range got {
			t.Errorf("status row %q gained unexpected key %q", row, extra)
		}
	}
	// The graphs row is an array; pin the exact key set of its
	// per-dataset entries the same way.
	var graphs []map[string]json.RawMessage
	if err := json.Unmarshal(raw["graphs"], &graphs); err != nil {
		t.Fatalf("row %q: %v", "graphs", err)
	}
	if len(graphs) == 0 {
		t.Fatal("status graphs row empty after LoadGraph")
	}
	graphFields := []string{"name", "nodes", "edges", "memory_bytes",
		"layout_bytes", "sample_table_bytes"}
	got := graphs[0]
	for _, f := range graphFields {
		if _, ok := got[f]; !ok {
			t.Errorf("status graphs row lost key %q", f)
		}
		delete(got, f)
	}
	for extra := range got {
		t.Errorf("status graphs row gained unexpected key %q", extra)
	}
}

// TestPprofGating checks /debug/pprof/ is absent by default and
// served when Config.EnablePprof is set.
func TestPprofGating(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Without the flag the catch-all / route answers; pprof's index
	// page must not.
	if resp.StatusCode == http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		if bytes.Contains(b, []byte("profiles")) {
			t.Fatal("pprof served without EnablePprof")
		}
	}

	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Registry:    algo.NewBuiltinRegistry(),
		Catalog:     catalog,
		Store:       store,
		Workers:     1,
		EnablePprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap status %d with EnablePprof", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("heap profile")) {
		t.Errorf("heap profile body missing header: %.100s", b)
	}
}
