package datastore

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func labeledTriangle(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewLabeledBuilder()
	b.AddLabeledEdge("a", "b")
	b.AddLabeledEdge("b", "c")
	b.AddLabeledEdge("c", "a")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDatasetRoundTrip(t *testing.T) {
	s := newStore(t)
	g := labeledTriangle(t)
	if err := s.SaveDataset("tri", g); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDataset("tri")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 3 || got.NumEdges() != 3 {
		t.Fatalf("round trip N=%d M=%d", got.NumNodes(), got.NumEdges())
	}
	a, ok := got.NodeByLabel("a")
	if !ok {
		t.Fatal("labels lost")
	}
	bID, _ := got.NodeByLabel("b")
	if !got.HasEdge(a, bID) {
		t.Error("edge lost")
	}
}

func TestUnlabeledDatasetRoundTrip(t *testing.T) {
	s := newStore(t)
	g, err := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveDataset("plain", g); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDataset("plain")
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels() != nil {
		t.Error("phantom labels appeared")
	}
	if !got.HasEdge(0, 1) {
		t.Error("edge lost")
	}
}

func TestSaveOverwritesAndDropsStaleLabels(t *testing.T) {
	s := newStore(t)
	if err := s.SaveDataset("x", labeledTriangle(t)); err != nil {
		t.Fatal(err)
	}
	plain, _ := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	if err := s.SaveDataset("x", plain); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDataset("x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels() != nil {
		t.Error("stale labels survived overwrite")
	}
}

func TestListAndDeleteDatasets(t *testing.T) {
	s := newStore(t)
	for _, n := range []string{"zz", "aa"} {
		if err := s.SaveDataset(n, labeledTriangle(t)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.ListDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "aa" || names[1] != "zz" {
		t.Errorf("ListDatasets = %v", names)
	}
	if err := s.DeleteDataset("aa"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDataset("aa"); err != nil {
		t.Error("double delete errored:", err)
	}
	names, _ = s.ListDatasets()
	if len(names) != 1 {
		t.Errorf("after delete: %v", names)
	}
	if _, err := s.LoadDataset("aa"); err == nil {
		t.Error("deleted dataset loaded")
	}
}

func TestNameValidation(t *testing.T) {
	s := newStore(t)
	g := labeledTriangle(t)
	for _, bad := range []string{"", ".", "..", "a..b", "a/b", `a\b`, "x/../y"} {
		if err := s.SaveDataset(bad, g); !errors.Is(err, ErrInvalidName) {
			t.Errorf("SaveDataset(%q) = %v, want ErrInvalidName", bad, err)
		}
		if _, err := s.LoadDataset(bad); err == nil {
			t.Errorf("LoadDataset accepted %q", bad)
		}
		if err := s.SaveResult(bad, map[string]int{}); err == nil {
			t.Errorf("SaveResult accepted %q", bad)
		}
		if err := s.AppendLog(bad, "x"); err == nil {
			t.Errorf("AppendLog accepted %q", bad)
		}
	}
}

type testDoc struct {
	Algorithm string   `json:"algorithm"`
	Top       []string `json:"top"`
}

func TestResultRoundTrip(t *testing.T) {
	s := newStore(t)
	doc := testDoc{Algorithm: "cyclerank", Top: []string{"a", "b"}}
	if err := s.SaveResult("task-1", doc); err != nil {
		t.Fatal(err)
	}
	if !s.HasResult("task-1") {
		t.Error("HasResult false after save")
	}
	if s.HasResult("task-2") {
		t.Error("HasResult true for missing result")
	}
	var got testDoc
	if err := s.LoadResult("task-1", &got); err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "cyclerank" || len(got.Top) != 2 {
		t.Errorf("LoadResult = %+v", got)
	}
	ids, err := s.ListResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "task-1" {
		t.Errorf("ListResults = %v", ids)
	}
	if err := s.LoadResult("ghost", &got); err == nil {
		t.Error("loaded missing result")
	}
}

func TestLogAppendAndRead(t *testing.T) {
	s := newStore(t)
	if err := s.AppendLog("t1", "started"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLog("t1", "finished"); err != nil {
		t.Fatal(err)
	}
	log, err := s.ReadLog("t1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log, "started") || !strings.Contains(log, "finished") {
		t.Errorf("log = %q", log)
	}
	empty, err := s.ReadLog("never")
	if err != nil || empty != "" {
		t.Errorf("missing log: %q, %v", empty, err)
	}
}

func TestConcurrentSaves(t *testing.T) {
	s := newStore(t)
	g := labeledTriangle(t)
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			if i%2 == 0 {
				done <- s.SaveDataset("shared", g)
			} else {
				done <- s.SaveResult("shared", testDoc{Algorithm: "x"})
			}
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.LoadDataset("shared"); err != nil {
		t.Fatal(err)
	}
}

// TestSaveDatasetRoundTripsLineBreakLabels: labels are length-prefixed
// in a snapshot, so a label holding a newline, or ending in a carriage
// return, comes back as it went in.
func TestSaveDatasetRoundTripsLineBreakLabels(t *testing.T) {
	s := newStore(t)
	b := graph.NewLabeledBuilder()
	b.AddLabeledEdge("ok", "bad\nlabel")
	b.AddLabeledEdge("bad\nlabel", "trailing\r")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveDataset("nl", g); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadDataset("nl")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ok", "bad\nlabel", "trailing\r"}; !slices.Equal(got.Labels().Names(), want) {
		t.Errorf("labels %q, want %q", got.Labels().Names(), want)
	}
	if !got.HasEdge(1, 2) {
		t.Error("edge lost")
	}
}

// TestLoadDatasetCorruptFile: a snapshot that is not one, and one with
// a flipped bit, fail their checksum instead of loading.
func TestLoadDatasetCorruptFile(t *testing.T) {
	s := newStore(t)
	path := filepath.Join(s.Root(), "datasets", "corrupt.snap")
	if err := os.WriteFile(path, []byte("this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDataset("corrupt"); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("garbage snapshot: %v, want ErrSnapshotCorrupt", err)
	}
	if err := s.SaveDataset("flipped", labeledTriangle(t)); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(s.Root(), "datasets", "flipped.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDataset("flipped"); !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("bit-flipped snapshot: %v, want a checksum mismatch", err)
	}
}

// TestLoadDatasetLabelCountMismatch: a snapshot whose label table is
// not one label per node is refused, even with a valid checksum.
func TestLoadDatasetLabelCountMismatch(t *testing.T) {
	s := newStore(t)
	plain, err := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// An unlabeled snapshot ends in a zero label count and the CRC:
	// swap the count for one label.
	data := encodeSnapshot(plain)
	data = reseal(append(data[:len(data)-5], 1, 8, 'o', 'n', 'l', 'y', '-', 'o', 'n', 'e', 0, 0, 0, 0))
	path := filepath.Join(s.Root(), "datasets", "mismatch.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDataset("mismatch"); !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "1 labels for 3 nodes") {
		t.Errorf("label/node count mismatch: %v", err)
	}
}

func TestLoadResultBadJSON(t *testing.T) {
	s := newStore(t)
	path := filepath.Join(s.Root(), "results", "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out testDoc
	if err := s.LoadResult("bad", &out); err == nil {
		t.Error("malformed result decoded")
	}
}

func TestHasResultInvalidName(t *testing.T) {
	s := newStore(t)
	if s.HasResult("../escape") {
		t.Error("invalid name reported as existing")
	}
	if _, err := s.ReadLog("../escape"); err == nil {
		t.Error("ReadLog accepted traversal name")
	}
	if err := s.DeleteDataset("../escape"); err == nil {
		t.Error("DeleteDataset accepted traversal name")
	}
	if err := s.LoadResult("../escape", nil); err == nil {
		t.Error("LoadResult accepted traversal name")
	}
}

func TestOpenCreatesTree(t *testing.T) {
	dir := t.TempDir() + "/nested/store"
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Root() != dir {
		t.Errorf("Root = %q", s.Root())
	}
	if _, err := s.ListDatasets(); err != nil {
		t.Error(err)
	}
	if _, err := s.ListResults(); err != nil {
		t.Error(err)
	}
	// Exactly these subdirectories: nothing else (a traffic/ directory
	// included) is created by Open.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if want := "datasets endpoints indexes logs results"; strings.Join(got, " ") != want {
		t.Errorf("Open created %v, want %s", got, want)
	}
}
