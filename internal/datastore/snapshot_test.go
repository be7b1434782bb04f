package datastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// reseal recomputes the trailing CRC so a hand-damaged snapshot gets
// past the checksum and reaches the structural checks.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

// frameSnapshot frames a hand-written body (the rows and labels) under
// a header with the given fingerprint, n and m, and seals it.
func frameSnapshot(fp string, n, m uint64, body ...byte) []byte {
	data := append([]byte(nil), snapshotMagic[:]...)
	data = binary.LittleEndian.AppendUint16(data, snapshotVersion)
	raw := make([]byte, 16)
	copy(raw, fp)
	data = append(data, raw...)
	data = binary.LittleEndian.AppendUint64(data, n)
	data = binary.LittleEndian.AppendUint64(data, m)
	data = append(data, body...)
	return reseal(append(data, 0, 0, 0, 0))
}

// sameGraph reports whether two graphs have the same CSR, fingerprint
// and labels.
func sameGraph(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() ||
		graph.Fingerprint(a) != graph.Fingerprint(b) ||
		!slices.Equal(a.Labels().Names(), b.Labels().Names()) {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		if !slices.Equal(a.Out(graph.NodeID(v)), b.Out(graph.NodeID(v))) {
			return false
		}
	}
	return true
}

// snapshotGraphs are the shapes the codec tests round-trip: labeled,
// unlabeled, empty, a self-loop, and ids wide enough for multi-byte
// gaps.
func snapshotGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	labeled := graph.NewLabeledBuilder()
	labeled.AddLabeledEdge("a", "b")
	labeled.AddLabeledEdge("b", "c")
	labeled.AddLabeledEdge("c", "a")
	labeled.AddLabeledEdge("c", "c")
	labeled.AddNode("lonely")
	wide := graph.NewBuilder(70000)
	for i := 0; i < 200; i++ {
		wide.AddEdge(graph.NodeID(i*7), graph.NodeID((i*104729)%70000))
		wide.AddEdge(graph.NodeID(i*7), graph.NodeID(69999-i))
	}
	out := map[string]*graph.Graph{}
	for name, b := range map[string]*graph.Builder{
		"labeled":   labeled,
		"unlabeled": graph.NewBuilder(4),
		"empty":     graph.NewBuilder(0),
		"wide":      wide,
	} {
		if name == "unlabeled" {
			b.AddEdge(0, 1)
			b.AddEdge(1, 0)
			b.AddEdge(2, 2)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, g := range snapshotGraphs(t) {
		data := encodeSnapshot(g)
		got, err := decodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameGraph(g, got) {
			t.Errorf("%s: round trip changed the graph", name)
		}
		if (g.Labels() == nil) != (got.Labels() == nil) && g.NumNodes() > 0 {
			t.Errorf("%s: labeled=%v decoded as labeled=%v", name, g.Labels() != nil, got.Labels() != nil)
		}
		if again := encodeSnapshot(got); !bytes.Equal(again, data) {
			t.Errorf("%s: decoded snapshot re-encodes to different bytes", name)
		}
		if fp, err := snapshotFingerprint(data); err != nil || fp != graph.Fingerprint(g) {
			t.Errorf("%s: header fingerprint %q (%v), want %q", name, fp, err, graph.Fingerprint(g))
		}
	}
}

// TestDecodeSnapshotRejects: every structural lie, sealed so it passes
// the checksum, is a typed error.
func TestDecodeSnapshotRejects(t *testing.T) {
	g := snapshotGraphs(t)["unlabeled"]
	good := encodeSnapshot(g)
	fp := string(good[6:22])
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	future := bytes.Clone(good)
	future[4]++
	// The fingerprint of two isolated nodes, so the duplicate-label
	// case gets past the fingerprint check to the label table.
	isolated, err := graph.FromEdges(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	isolatedFP := string(encodeSnapshot(isolated)[6:22])
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad checksum", flipped, ErrSnapshotCorrupt},
		{"truncated", good[:len(good)-3], ErrSnapshotCorrupt},
		{"bad magic", reseal(append([]byte("XXXX"), good[4:]...)), ErrSnapshotCorrupt},
		{"other version", reseal(future), ErrSnapshotVersion},
		// Node 0 lists 1 then 1 again: a zero gap.
		{"row not ascending", frameSnapshot(fp, 2, 2, 2, 1, 0, 0, 0), ErrSnapshotCorrupt},
		{"target past n", frameSnapshot(fp, 2, 1, 1, 2, 0, 0), ErrSnapshotCorrupt},
		{"gap past n", frameSnapshot(fp, 2, 2, 2, 0, 2, 0, 0), ErrSnapshotCorrupt},
		{"degrees past m", frameSnapshot(fp, 2, 1, 2, 0, 1, 0, 0), ErrSnapshotCorrupt},
		{"degrees short of m", frameSnapshot(fp, 2, 2, 1, 1, 0, 0), ErrSnapshotCorrupt},
		{"nodes past the bytes", frameSnapshot(fp, 1<<40, 0, 0), ErrSnapshotCorrupt},
		{"label count not n", frameSnapshot(fp, 2, 0, 0, 0, 1, 1, 'x'), ErrSnapshotCorrupt},
		{"label past the bytes", frameSnapshot(fp, 1, 0, 0, 1, 9, 'x'), ErrSnapshotCorrupt},
		{"duplicate labels", frameSnapshot(isolatedFP, 2, 0, 0, 0, 2, 1, 'x', 1, 'x'), ErrSnapshotCorrupt},
		{"trailing bytes", frameSnapshot(fp, 1, 0, 0, 0, 7), ErrSnapshotCorrupt},
		{"non-minimal varint", frameSnapshot(fp, 1, 0, 0x80, 0x00, 0), ErrSnapshotCorrupt},
		{"fingerprint mismatch", frameSnapshot("not the graph", 2, 1, 1, 1, 0, 0), ErrSnapshotCorrupt},
	}
	for _, c := range cases {
		if g, err := decodeSnapshot(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: decoded (%v, %v), want %v", c.name, g != nil, err, c.want)
		}
	}
	// The hand-framed shape is right: with the true fingerprint the
	// same bytes as "fingerprint mismatch" decode.
	one, err := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(frameSnapshot(string(encodeSnapshot(one)[6:22]), 2, 1, 1, 1, 0, 0)); err != nil {
		t.Errorf("hand-framed snapshot of a valid graph: %v", err)
	}
}

// writeLegacySet writes name in the layout that preceded snapshots:
// <name>.asd, and optionally the .labels and .fp sidecars.
func writeLegacySet(t *testing.T, dir, name string, g *graph.Graph, withLabels, withFP bool) {
	t.Helper()
	base := filepath.Join(dir, "datasets", name)
	var asd bytes.Buffer
	if err := formats.WriteASD(&asd, g); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{".asd": asd.String()}
	if withLabels {
		files[".labels"] = strings.Join(g.Labels().Names(), "\n") + "\n"
	}
	if withFP {
		files[".fp"] = graph.Fingerprint(g) + "\n"
	}
	for ext, body := range files {
		if err := os.WriteFile(base+ext, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// datasetFiles lists datasets/, sorted.
func datasetFiles(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(root, "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestOpenMigratesLegacyDatasets: Open turns each legacy set, with and
// without its sidecars, into one snapshot of the same CSR, labels and
// fingerprint, and removes the old files. A corrupt set is left in
// place, unlisted, and reported. A migrated set that lacked its .fp
// still reclaims its artifacts on delete.
func TestOpenMigratesLegacyDatasets(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	tri := labeledTriangle(t)
	plain := snapshotGraphs(t)["unlabeled"]
	writeLegacySet(t, dir, "full", tri, true, true)
	writeLegacySet(t, dir, "nofp", tri, true, false)
	writeLegacySet(t, dir, "bare", plain, false, false)
	writeLegacySet(t, dir, "plainfp", plain, false, true)
	if err := os.WriteFile(filepath.Join(dir, "datasets", "broken.asd"), []byte("3 5\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A labeled set whose sidecar names too few nodes is corrupt too.
	writeLegacySet(t, dir, "shortlabels", tri, true, true)
	if err := os.WriteFile(filepath.Join(dir, "datasets", "shortlabels.labels"), []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"broken", "shortlabels"} {
		if err := s.MigrationErr(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("MigrationErr = %v, want it to name %q", err, bad)
		}
	}
	names, err := s.ListDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"bare", "full", "nofp", "plainfp"}; !slices.Equal(names, want) {
		t.Errorf("ListDatasets = %v, want %v", names, want)
	}
	want := map[string]*graph.Graph{"full": tri, "nofp": tri, "bare": plain, "plainfp": plain}
	for name, g := range want {
		got, err := s.LoadDataset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameGraph(g, got) {
			t.Errorf("%s: migrated graph differs from the legacy one", name)
		}
		if fp, ok := s.datasetFingerprint(name); !ok || fp != graph.Fingerprint(g) {
			t.Errorf("%s: snapshot header fingerprint %q, want %q", name, fp, graph.Fingerprint(g))
		}
	}
	wantFiles := []string{"bare.snap", "broken.asd", "full.snap", "nofp.snap", "plainfp.snap",
		"shortlabels.asd", "shortlabels.fp", "shortlabels.labels"}
	if got := datasetFiles(t, dir); !slices.Equal(got, wantFiles) {
		t.Errorf("datasets/ holds %v, want %v", got, wantFiles)
	}

	// A second Open has nothing left to migrate but the corrupt sets.
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.MigrationErr(); err == nil || strings.Contains(err.Error(), `"full"`) {
		t.Errorf("second Open: MigrationErr = %v", err)
	}

	// The set migrated without a .fp sidecar reclaims its artifacts:
	// the refcount reads the fingerprint from the snapshot header.
	if err := again.DeleteDataset("full"); err != nil {
		t.Fatal(err)
	}
	fp := graph.Fingerprint(tri)
	if err := again.SaveIndex(fp, "k1", []byte("idx")); err != nil {
		t.Fatal(err)
	}
	if err := again.DeleteDataset("nofp"); err != nil {
		t.Fatal(err)
	}
	if _, err := again.LoadIndex(fp, "k1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("migrated dataset's artifacts not reclaimed: %v", err)
	}
}

// TestOpenFinishesAnInterruptedMigration: a legacy set beside its
// snapshot (a migration cut short after its write, or a set an upload
// replaced) loses its old files, and the snapshot is kept as it is.
func TestOpenFinishesAnInterruptedMigration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	newer := snapshotGraphs(t)["unlabeled"]
	if err := s.SaveDataset("x", newer); err != nil {
		t.Fatal(err)
	}
	writeLegacySet(t, dir, "x", labeledTriangle(t), true, true)
	s, err = Open(dir)
	if err != nil || s.MigrationErr() != nil {
		t.Fatalf("Open: %v, %v", err, s.MigrationErr())
	}
	if got := datasetFiles(t, dir); !slices.Equal(got, []string{"x.snap"}) {
		t.Errorf("datasets/ holds %v, want only x.snap", got)
	}
	got, err := s.LoadDataset("x")
	if err != nil || !sameGraph(got, newer) {
		t.Errorf("the snapshot was replaced by the legacy set (%v)", err)
	}
}

// TestSnapshotCrashWindow: what a crash mid-save can leave — the temp
// file of the cut-short write, or a snapshot truncated by a torn
// disk — never lists as a dataset, and the previous snapshot of the
// name still loads.
func TestSnapshotCrashWindow(t *testing.T) {
	s := newStore(t)
	old := labeledTriangle(t)
	if err := s.SaveDataset("kept", old); err != nil {
		t.Fatal(err)
	}
	next := encodeSnapshot(snapshotGraphs(t)["wide"])
	dir := filepath.Join(s.Root(), "datasets")
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123456"), next[:len(next)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.snap"), next[:len(next)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := s.ListDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(names, []string{"kept"}) {
		t.Errorf("ListDatasets = %v, want [kept]", names)
	}
	got, err := s.LoadDataset("kept")
	if err != nil || !sameGraph(got, old) {
		t.Errorf("previous snapshot does not load as saved (%v)", err)
	}
	if _, err := s.LoadDataset("torn"); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("torn snapshot: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSaveDatasetOneFile: a data dir holds exactly one file per
// uploaded dataset, and an overwrite keeps it at one.
func TestSaveDatasetOneFile(t *testing.T) {
	s := newStore(t)
	for _, g := range []*graph.Graph{labeledTriangle(t), snapshotGraphs(t)["unlabeled"]} {
		if err := s.SaveDataset("one", g); err != nil {
			t.Fatal(err)
		}
		if got := datasetFiles(t, s.Root()); !slices.Equal(got, []string{"one.snap"}) {
			t.Fatalf("datasets/ holds %v, want [one.snap]", got)
		}
	}
}
