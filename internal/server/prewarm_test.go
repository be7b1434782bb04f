package server

import (
	"bytes"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// bootServer opens a datastore over dir and boots a server on the
// complete-50 catalog. Catalog and store are filled in; the caller
// owns shutdown through closeBoot (sequential boots inside one test
// need explicit ordering that t.Cleanup cannot express).
func bootServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = catalog
	cfg.Store = store
	if cfg.Registry == nil {
		cfg.Registry = algo.NewBuiltinRegistry()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s)
}

// closeBoot stops a bootServer pair: HTTP first, then the server and
// its scheduler.
func closeBoot(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	closeWithin(t, s, 5*time.Second)
}

// closeWithin closes s and fails the test if the close (its background
// work and scheduler stopping) takes longer than d, so a scheduler that
// will not stop fails the test that started it.
func closeWithin(t *testing.T, s *Server, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatalf("server did not close within %v", d)
	}
}

// newPrewarmServer builds a server with the pre-warm task enabled
// over the given datastore directory and catalog subset.
func newPrewarmServer(t *testing.T, dir string, datasetNames ...string) (*Server, *httptest.Server) {
	t.Helper()
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset(datasetNames...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog, Store: store, Workers: 2, PreWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWithin(t, s, 5*time.Second) })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// waitPrewarm polls /api/status until the pre-warm task reaches a
// terminal state.
func waitPrewarm(t *testing.T, url string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st statusResponse
		getJSON(t, url+"/api/status", &st)
		if st.Prewarm.State == "done" || st.Prewarm.State == "cancelled" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("pre-warm did not finish: %+v", st.Prewarm)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrewarmWarmsAcrossRestart: the pre-warm task computes and
// persists every suggested node's index and endpoint recording; a
// restarted server's pre-warm finds all of them on disk, and the
// first user query against a suggested node pays no reverse push.
func TestPrewarmWarmsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	srv1, ts1 := newPrewarmServer(t, dir, "enwiki-2018")
	st1 := waitPrewarm(t, ts1.URL)
	if st1.Prewarm.State != "done" {
		t.Fatalf("first pre-warm state %q", st1.Prewarm.State)
	}
	p := st1.Prewarm
	if p.NodesTotal == 0 || p.NodesDone != p.NodesTotal || p.DatasetsDone != p.DatasetsTotal {
		t.Fatalf("pre-warm progress incomplete: %+v", p)
	}
	if p.Errors != 0 {
		t.Fatalf("pre-warm errors: %+v", p)
	}
	if p.IndexesComputed != p.NodesTotal || p.EndpointsRecorded != p.NodesTotal {
		t.Fatalf("cold pre-warm should compute everything: %+v", p)
	}
	// The artifacts are on disk for the next process.
	if st1.IndexStore.DiskWrites != int64(p.NodesTotal) || st1.EndpointCache.DiskWrites != int64(p.NodesTotal) {
		t.Fatalf("pre-warm did not persist: indexes %d, endpoints %d, want %d each",
			st1.IndexStore.DiskWrites, st1.EndpointCache.DiskWrites, p.NodesTotal)
	}
	srv1.Close()
	ts1.Close()

	// Restart: the same pre-warm now only deserializes.
	_, ts2 := newPrewarmServer(t, dir, "enwiki-2018")
	st2 := waitPrewarm(t, ts2.URL)
	p2 := st2.Prewarm
	if p2.State != "done" || p2.Errors != 0 {
		t.Fatalf("second pre-warm: %+v", p2)
	}
	if p2.IndexesWarm != p2.NodesTotal || p2.EndpointsWarm != p2.NodesTotal {
		t.Fatalf("restarted pre-warm recomputed instead of loading: %+v", p2)
	}
	if st2.IndexStore.Misses != 0 || st2.EndpointCache.Misses != 0 {
		t.Fatalf("restarted pre-warm paid misses: %+v / %+v", st2.IndexStore, st2.EndpointCache)
	}

	// The first "user" query against a suggested node at default
	// parameters is already warm: no reverse push anywhere.
	out, status := postTasks(t, ts2.URL, `{"tasks": [
		{"dataset": "enwiki-2018", "algorithm": "ppr-target", "params": {"target": "Freddie Mercury"}}
	]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	view := waitTask(t, ts2.URL, out.TaskIDs[0])
	if view.Task.State != task.StateDone {
		t.Fatalf("warm query %s (%s)", view.Task.State, view.Task.Error)
	}
	var st3 statusResponse
	getJSON(t, ts2.URL+"/api/status", &st3)
	if st3.IndexStore.Misses != 0 {
		t.Fatalf("first user query paid a reverse push despite pre-warm: %+v", st3.IndexStore)
	}
}

// TestPrewarmCancelLeavesNoPartialArtifacts: closing the server
// mid-warm stops the task promptly and — because every artifact write
// goes through the datastore's atomic-rename path — leaves no partial
// or undecodable artifacts and no temp files behind.
func TestPrewarmCancelLeavesNoPartialArtifacts(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newPrewarmServer(t, dir, "enwiki-2018", "dewiki-2018", "amazon", "twitter-cop27")
	// Close as early as possible: depending on timing the warm task is
	// interrupted mid-dataset, between nodes, or inside a walk pass.
	srv.Close()

	var st statusResponse
	getJSON(t, ts.URL+"/api/status", &st)
	if st.Prewarm.State != "cancelled" && st.Prewarm.State != "done" {
		t.Fatalf("after Close the pre-warm is still %q", st.Prewarm.State)
	}

	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", path)
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(d.Name(), ".idx"):
			if _, err := bippr.DecodeIndex(data); err != nil {
				t.Errorf("partial index artifact %s: %v", path, err)
			}
		case strings.HasSuffix(d.Name(), ".ep"):
			if _, err := bippr.DecodeEndpoints(data); err != nil {
				t.Errorf("partial endpoint artifact %s: %v", path, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArtifactGCSweepsInBackground: a server with a byte cap reaps
// oldest-accessed artifacts on its sweep loop and reports the pass in
// /api/status.
func TestArtifactGCSweepsInBackground(t *testing.T) {
	prev := artifactSweepInterval
	artifactSweepInterval = 20 * time.Millisecond
	t.Cleanup(func() { artifactSweepInterval = prev })

	dir := t.TempDir()
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed artifacts over the cap before the server starts, with a
	// stale access clock so the sweep order is deterministic.
	old := time.Now().Add(-time.Hour)
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := store.SaveIndex("fp", k, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir, "indexes", "fp", k+".idx"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog, Store: store, Workers: 1, ArtifactCapBytes: 1500})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		var st statusResponse
		getJSON(t, ts.URL+"/api/status", &st)
		if st.ArtifactGC.Sweeps >= 1 && st.ArtifactGC.LastSweep.Reaped >= 2 {
			if st.ArtifactGC.CapBytes != 1500 {
				t.Fatalf("cap not reported: %+v", st.ArtifactGC)
			}
			if st.ArtifactGC.LastSweep.Bytes > 1500 {
				t.Fatalf("sweep left usage over the cap: %+v", st.ArtifactGC)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never reaped: %+v", st.ArtifactGC)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBootIgnoresLeftoverTrafficSketch: a data dir written by an older
// server holds traffic/sketch.bin. A server booted on it pre-warms
// cleanly, answers a bippr-pair query, and neither reads nor removes
// the file.
func TestBootIgnoresLeftoverTrafficSketch(t *testing.T) {
	dir := t.TempDir()
	sketch := filepath.Join(dir, "traffic", "sketch.bin")
	if err := os.MkdirAll(filepath.Dir(sketch), 0o755); err != nil {
		t.Fatal(err)
	}
	planted := []byte("any bytes an older server left behind")
	if err := os.WriteFile(sketch, planted, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(sketch)
	if err != nil {
		t.Fatal(err)
	}

	s, ts := bootServer(t, dir, Config{PreWarm: true})
	st := waitPrewarm(t, ts.URL)
	if st.Prewarm.State != "done" || st.Prewarm.Errors != 0 {
		t.Fatalf("pre-warm over a leftover sketch: %+v", st.Prewarm)
	}
	runOneTask(t, ts) // fails the test unless the bippr-pair task is done
	closeBoot(t, s, ts)

	after, err := os.Stat(sketch)
	if err != nil {
		t.Fatalf("leftover sketch removed: %v", err)
	}
	data, err := os.ReadFile(sketch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, planted) || !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("leftover sketch touched: %q, mtime %v -> %v", data, before.ModTime(), after.ModTime())
	}
}
