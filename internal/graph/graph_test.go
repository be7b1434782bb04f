package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// mustBuild builds an unlabeled graph or fails the test.
func mustBuild(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges(%d, %v): %v", n, edges, err)
	}
	return g
}

// triangle returns the 3-cycle 0->1->2->0.
func triangle(t *testing.T) *Graph {
	return mustBuild(t, 3, []Edge{{0, 1}, {1, 2}, {2, 0}})
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 {
		t.Errorf("zero Graph NumNodes = %d, want 0", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Errorf("zero Graph NumEdges = %d, want 0", g.NumEdges())
	}
	if g.Density() != 0 {
		t.Errorf("zero Graph Density = %v, want 0", g.Density())
	}
	if g.Reciprocity() != 0 {
		t.Errorf("zero Graph Reciprocity = %v, want 0", g.Reciprocity())
	}
	if g.HasEdge(0, 0) {
		t.Error("zero Graph claims an edge")
	}
	if g.ValidNode(0) {
		t.Error("zero Graph claims node 0 is valid")
	}
}

func TestBuilderBasics(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 3}})
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 5 {
		t.Fatalf("NumEdges = %d, want 5", got)
	}
	wantOut := map[NodeID][]NodeID{
		0: {1, 2}, 1: {2}, 2: {0}, 3: {3},
	}
	for v, want := range wantOut {
		if got := g.Out(v); !reflect.DeepEqual(append([]NodeID{}, got...), want) {
			t.Errorf("Out(%d) = %v, want %v", v, got, want)
		}
	}
	wantIn := map[NodeID][]NodeID{
		0: {2}, 1: {0}, 2: {0, 1}, 3: {3},
	}
	for v, want := range wantIn {
		if got := g.In(v); !reflect.DeepEqual(append([]NodeID{}, got...), want) {
			t.Errorf("In(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 1}, {0, 1}, {0, 1}, {1, 0}})
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d after dedup, want 2", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("expected edges missing after dedup")
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range edge")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build accepted negative source")
	}
}

func TestBuilderNegativeCount(t *testing.T) {
	if _, err := NewBuilder(-1).Build(); err == nil {
		t.Fatal("Build accepted negative node count")
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.AddEdge(1, 2)
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != 1 || g2.NumEdges() != 2 {
		t.Errorf("edge counts = %d, %d; want 1, 2", g1.NumEdges(), g2.NumEdges())
	}
}

func TestLabeledBuilder(t *testing.T) {
	b := NewLabeledBuilder()
	b.AddLabeledEdge("a", "b")
	b.AddLabeledEdge("b", "c")
	b.AddLabeledEdge("c", "a")
	b.AddLabeledEdge("a", "b") // duplicate
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got N=%d M=%d, want N=3 M=3", g.NumNodes(), g.NumEdges())
	}
	id, ok := g.NodeByLabel("b")
	if !ok {
		t.Fatal("label b not found")
	}
	if got := g.Label(id); got != "b" {
		t.Errorf("Label(%d) = %q, want \"b\"", id, got)
	}
	if _, ok := g.NodeByLabel("zzz"); ok {
		t.Error("unknown label resolved")
	}
}

// TestLabeledBuilderReusableAfterBuild: Build hands the builder's
// intern map to the graph's label table, so a label added after it must
// leave the first graph's table as it was, and each table must resolve
// every name it holds.
func TestLabeledBuilderReusableAfterBuild(t *testing.T) {
	b := NewLabeledBuilder()
	b.AddLabeledEdge("a", "b")
	g1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.AddLabeledEdge("b", "c")
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g1.Labels().Names(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("first graph's labels became %q", got)
	}
	if _, ok := g1.NodeByLabel("c"); ok {
		t.Fatal("first graph resolves a label added after its Build")
	}
	if got := g2.Labels().Names(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("second graph's labels are %q", got)
	}
	for _, g := range []*Graph{g1, g2} {
		for i, name := range g.Labels().Names() {
			if id, ok := g.NodeByLabel(name); !ok || id != NodeID(i) {
				t.Fatalf("label %q resolves to %d, %v; want %d", name, id, ok, i)
			}
		}
	}
}

func TestLabeledBuilderRejectsEmptyLabel(t *testing.T) {
	b := NewLabeledBuilder()
	b.AddLabeledEdge("", "x")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted empty label")
	}
}

func TestAddNodeOnIndexedBuilderFails(t *testing.T) {
	b := NewBuilder(2)
	b.AddNode("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("indexed builder accepted AddNode")
	}
}

func TestAddEdgeOnLabeledBuilderFails(t *testing.T) {
	b := NewLabeledBuilder()
	b.AddEdge(0, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("labeled builder accepted AddEdge")
	}
}

func TestHasEdge(t *testing.T) {
	g := triangle(t)
	cases := []struct {
		from, to NodeID
		want     bool
	}{
		{0, 1, true}, {1, 2, true}, {2, 0, true},
		{1, 0, false}, {0, 2, false}, {0, 0, false},
		{-1, 0, false}, {0, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.from, c.to); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestTranspose(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {0, 2}, {1, 2}})
	gt := g.Transpose()
	if gt.NumNodes() != 3 || gt.NumEdges() != 3 {
		t.Fatalf("transpose N=%d M=%d", gt.NumNodes(), gt.NumEdges())
	}
	g.Edges(func(u, v NodeID) bool {
		if !gt.HasEdge(v, u) {
			t.Errorf("transpose missing edge (%d,%d)", v, u)
		}
		return true
	})
	// Transpose is an involution sharing storage.
	gtt := gt.Transpose()
	g.Edges(func(u, v NodeID) bool {
		if !gtt.HasEdge(u, v) {
			t.Errorf("double transpose missing edge (%d,%d)", u, v)
		}
		return true
	})
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 0.1)
		gtt := g.Transpose().Transpose()
		equal := true
		g.Edges(func(u, v NodeID) bool {
			if !gtt.HasEdge(u, v) {
				equal = false
				return false
			}
			return true
		})
		return equal && g.NumEdges() == gtt.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDegrees(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 0}})
	if got := g.OutDegree(0); got != 3 {
		t.Errorf("OutDegree(0) = %d, want 3", got)
	}
	if got := g.InDegree(0); got != 1 {
		t.Errorf("InDegree(0) = %d, want 1", got)
	}
	if got := g.InDegree(3); got != 1 {
		t.Errorf("InDegree(3) = %d, want 1", got)
	}
	if got := g.OutDegree(3); got != 0 {
		t.Errorf("OutDegree(3) = %d, want 0", got)
	}
}

func TestDanglingNodes(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {1, 2}})
	want := []NodeID{2, 3}
	if got := g.DanglingNodes(); !reflect.DeepEqual(got, want) {
		t.Errorf("DanglingNodes = %v, want %v", got, want)
	}
}

func TestReciprocity(t *testing.T) {
	// 0<->1 mutual, 0->2 one-way: 2 of 3 edges reciprocated.
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 0}, {0, 2}})
	got := g.Reciprocity()
	want := 2.0 / 3.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Reciprocity = %v, want %v", got, want)
	}
}

func TestDensity(t *testing.T) {
	g := triangle(t)
	want := 3.0 / 6.0
	if got := g.Density(); got != want {
		t.Errorf("Density = %v, want %v", got, want)
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := triangle(t)
	count := 0
	g.Edges(func(u, v NodeID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("Edges visited %d edges after early stop, want 2", count)
	}
}

func TestWithLabels(t *testing.T) {
	g := triangle(t)
	lg, err := g.WithLabels([]string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if got := lg.Label(1); got != "y" {
		t.Errorf("Label(1) = %q, want y", got)
	}
	if _, err := g.WithLabels([]string{"only-one"}); err == nil {
		t.Error("WithLabels accepted wrong-length slice")
	}
	if _, err := g.WithLabels([]string{"x", "x", "y"}); err == nil {
		t.Error("WithLabels accepted duplicate labels")
	}
}

func TestLabelTableNil(t *testing.T) {
	var lt *LabelTable
	if lt.Len() != 0 {
		t.Error("nil LabelTable Len != 0")
	}
	if got := lt.Name(5); got != "5" {
		t.Errorf("nil LabelTable Name(5) = %q, want \"5\"", got)
	}
	if _, ok := lt.ID("x"); ok {
		t.Error("nil LabelTable resolved a label")
	}
	if lt.Names() != nil {
		t.Error("nil LabelTable Names != nil")
	}
}

// TestLabelUnlabeledIsDecimalID: an unlabeled graph labels a node with
// its decimal id, up to the largest id a graph can hold.
func TestLabelUnlabeledIsDecimalID(t *testing.T) {
	g := triangle(t)
	for _, tc := range []struct {
		v    NodeID
		want string
	}{
		{0, "0"},
		{9, "9"},
		{10, "10"},
		{12345, "12345"},
		{MaxNodeID, "2147483646"},
	} {
		if got := g.Label(tc.v); got != tc.want {
			t.Errorf("Label(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	g := triangle(t)
	if g.MemoryFootprint() <= 0 {
		t.Error("MemoryFootprint not positive for non-empty graph")
	}
}

// randomGraph builds a seeded Erdős–Rényi digraph for property tests.
func randomGraph(seed int64, n int, p float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				b.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestCSRSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 0.15)
		for v := 0; v < g.NumNodes(); v++ {
			out := g.Out(NodeID(v))
			if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
				return false
			}
			in := g.In(NodeID(v))
			if !sort.SliceIsSorted(in, func(i, j int) bool { return in[i] < in[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInOutConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 35, 0.12)
		// Total in-degrees == total out-degrees == M, and every out-edge
		// appears as an in-edge.
		var inSum, outSum int64
		for v := 0; v < g.NumNodes(); v++ {
			inSum += int64(g.InDegree(NodeID(v)))
			outSum += int64(g.OutDegree(NodeID(v)))
		}
		if inSum != g.NumEdges() || outSum != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(u, v NodeID) bool {
			found := false
			for _, w := range g.In(v) {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
