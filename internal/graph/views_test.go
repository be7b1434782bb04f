package graph

import (
	"testing"
	"testing/quick"
)

func TestSampleTableMatchesOut(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 50, 0.1)
		tab := g.SampleTable()
		if tab == nil {
			t.Fatal("no sample table on non-empty graph")
		}
		for v := 0; v < g.NumNodes(); v++ {
			id := NodeID(v)
			row := g.Out(id)
			if tab.Degree(id) != len(row) {
				return false
			}
			for i := range row {
				if tab.Pick(id, i) != row[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSampleTableAbsentCases(t *testing.T) {
	empty, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if empty.SampleTable() != nil {
		t.Error("empty graph built a sample table")
	}
	if empty.SampleTableBytes() != 0 {
		t.Error("nil sample table reports bytes")
	}
	g := triangle(t)
	if g.Transpose().SampleTable() != nil {
		t.Error("transpose view carries a sample table")
	}
	if g.SampleTableBytes() != int64(g.NumNodes())*8 {
		t.Errorf("SampleTableBytes = %d, want %d", g.SampleTableBytes(), g.NumNodes()*8)
	}
}

// TestFingerprintInvariantUnderViews pins the acceptance criterion
// that graph fingerprints — and therefore every derived artifact key —
// are byte-unchanged by which hot-path views a graph carries: the
// sample table and the layout are views over the same canonical CSR
// the fingerprint hashes.
func TestFingerprintInvariantUnderViews(t *testing.T) {
	g := randomGraph(11, 70, 0.1)
	if g.Layout() == nil || g.SampleTable() == nil {
		t.Fatal("built graph is missing a view; the invariant cannot be exercised")
	}
	bare := *g
	bare.layout, bare.sample = nil, nil
	if got, want := Fingerprint(&bare), Fingerprint(g); got != want {
		t.Errorf("fingerprint changed when the views were dropped: %s != %s", got, want)
	}
}

func TestMemoryFootprintIncludesViews(t *testing.T) {
	g := randomGraph(3, 60, 0.1)
	want := g.csrBytes() + g.LayoutBytes() + g.SampleTableBytes()
	if g.MemoryFootprint() != want {
		t.Errorf("MemoryFootprint = %d, want %d", g.MemoryFootprint(), want)
	}
	if g.SampleTableBytes() == 0 || g.LayoutBytes() == 0 {
		t.Error("a derived view reports zero bytes")
	}
	s := ComputeStats(g)
	if s.SampleTableBytes != g.SampleTableBytes() || s.LayoutBytes != g.LayoutBytes() {
		t.Error("Stats views disagree with graph accessors")
	}
	if s.MemoryBytes != g.MemoryFootprint() {
		t.Error("Stats.MemoryBytes disagrees with MemoryFootprint")
	}
}
