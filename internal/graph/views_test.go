package graph

import (
	"math/rand"
	"strconv"
	"sync"
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

// TestViewsBuiltOnFirstUse: Build promises the views without building
// them, and concurrent first callers — the push and walk workers,
// through the graph and through a WithLabels copy sharing its CSR —
// build each view exactly once and all read the same one.
func TestViewsBuiltOnFirstUse(t *testing.T) {
	g := randomGraph(5, 80, 0.1)
	if g.layout == nil || g.sample == nil {
		t.Fatal("built graph does not carry both views")
	}
	if g.layout.built != nil || g.sample.built != nil {
		t.Fatal("Build built a view before its first use")
	}
	names := make([]string, g.NumNodes())
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	labeled, err := g.WithLabels(names)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	layouts := make([]*Layout, callers)
	tables := make([]*SampleTable, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := g
			if i%2 == 1 {
				h = labeled
			}
			<-start
			layouts[i], tables[i] = h.Layout(), h.SampleTable()
		}()
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if layouts[i] != layouts[0] || tables[i] != tables[0] {
			t.Fatalf("caller %d read a different view: the views were built more than once", i)
		}
	}
	if layouts[0] == nil || tables[0] == nil {
		t.Fatal("a view was not built")
	}
	if g.WithoutLayout().SampleTable() != tables[0] {
		t.Error("WithoutLayout copy rebuilt the sample table instead of sharing it")
	}
}

// TestViewBytesFromShape: the view sizes Stats reports are the built
// views' sizes, and they read the same before and after the first use.
func TestViewBytesFromShape(t *testing.T) {
	empty, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{empty, triangle(t), randomGraph(7, 60, 0.05), randomGraph(8, 120, 0.2)}
	for i, g := range graphs {
		before := ComputeStats(g)
		l := g.Layout()
		layout := int64(len(l.inOff))*8 + int64(len(l.perm)+len(l.inv)+len(l.inAdj))*4 +
			int64(len(l.outDeg))*4 + int64(len(l.recip))*8
		if got := g.LayoutBytes(); got != layout {
			t.Errorf("graph %d: LayoutBytes %d, built layout %d", i, got, layout)
		}
		var table int64
		if tab := g.SampleTable(); tab != nil {
			table = int64(len(tab.rows)) * 8
		}
		if got, want := g.SampleTableBytes(), table; got != want {
			t.Errorf("graph %d: SampleTableBytes %d, built table %d", i, got, want)
		}
		if after := ComputeStats(g); after != before {
			t.Errorf("graph %d: stats changed when the views were built:\n before %+v\n after  %+v", i, before, after)
		}
	}
}

// reciprocityOracle and selfLoopsOracle are the per-edge HasEdge forms
// the one-pass merge replaced.
func reciprocityOracle(g *Graph) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	var mutual int64
	g.Edges(func(from, to NodeID) bool {
		if g.HasEdge(to, from) {
			mutual++
		}
		return true
	})
	return float64(mutual) / float64(g.NumEdges())
}

func selfLoopsOracle(g *Graph) int64 {
	var loops int64
	for v := 0; v < g.NumNodes(); v++ {
		if g.HasEdge(NodeID(v), NodeID(v)) {
			loops++
		}
	}
	return loops
}

// TestMutualEdgesMatchHasEdgeOracle: Reciprocity and the stats'
// self-loop count from the merge are bit-identical to the HasEdge
// forms, on hand-built corner cases and random multisets.
func TestMutualEdgesMatchHasEdgeOracle(t *testing.T) {
	cases := map[string]*Graph{
		"self-loops":      mustBuild(t, 3, []Edge{{0, 0}, {1, 1}, {0, 1}}),
		"two-cycles":      mustBuild(t, 4, []Edge{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {0, 2}}),
		"duplicate edges": mustBuild(t, 3, []Edge{{0, 1}, {0, 1}, {1, 0}, {1, 0}, {2, 2}, {2, 2}}),
		"isolated nodes":  mustBuild(t, 6, []Edge{{1, 3}, {3, 1}, {3, 3}}),
		"edgeless":        mustBuild(t, 4, nil),
		"transpose":       mustBuild(t, 4, []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 2}, {3, 0}}).Transpose(),
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(100)
		cases["random "+strconv.Itoa(i)] = mustBuild(t, n, randomMultiset(rng, n, rng.Intn(600)))
	}
	for name, g := range cases {
		s := ComputeStats(g)
		if got, want := g.Reciprocity(), reciprocityOracle(g); got != want {
			t.Errorf("%s: Reciprocity %v, oracle %v", name, got, want)
		}
		if want := reciprocityOracle(g); s.Reciprocity != want {
			t.Errorf("%s: Stats.Reciprocity %v, oracle %v", name, s.Reciprocity, want)
		}
		if want := selfLoopsOracle(g); s.SelfLoops != want {
			t.Errorf("%s: Stats.SelfLoops %d, oracle %d", name, s.SelfLoops, want)
		}
	}
}
