package graph

import (
	"reflect"
	"testing"
)

func TestBFSFromChain(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, node 4 isolated.
	g := mustBuild(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}})
	got := BFSFrom(g, 0, -1)
	want := []int32{0, 1, 2, 3, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BFSFrom = %v, want %v", got, want)
	}
}

func TestBFSFromBounded(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	got := BFSFrom(g, 0, 2)
	want := []int32{0, 1, 2, Unreachable, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BFSFrom depth 2 = %v, want %v", got, want)
	}
}

func TestBFSFromZeroDepth(t *testing.T) {
	g := triangle(t)
	got := BFSFrom(g, 0, 0)
	want := []int32{0, Unreachable, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BFSFrom depth 0 = %v, want %v", got, want)
	}
}

func TestBFSTo(t *testing.T) {
	// 0 -> 1 -> 2; distance TO 2: node 0 is 2 hops, node 1 is 1 hop.
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}})
	got := BFSTo(g, 2, -1)
	want := []int32{2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BFSTo = %v, want %v", got, want)
	}
}

func TestBFSShortestPathPicked(t *testing.T) {
	// Two paths 0->3: direct edge (len 1) and 0->1->2->3 (len 3).
	g := mustBuild(t, 4, []Edge{{0, 3}, {0, 1}, {1, 2}, {2, 3}})
	d := BFSFrom(g, 0, -1)
	if d[3] != 1 {
		t.Errorf("dist to 3 = %d, want 1", d[3])
	}
}

func TestBFSInvalidSource(t *testing.T) {
	g := triangle(t)
	got := BFSFrom(g, 99, -1)
	for v, d := range got {
		if d != Unreachable {
			t.Errorf("node %d reachable from invalid source (d=%d)", v, d)
		}
	}
}

func TestBFSCycle(t *testing.T) {
	g := triangle(t)
	got := BFSFrom(g, 1, -1)
	want := []int32{2, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BFSFrom cycle = %v, want %v", got, want)
	}
}

func TestSCCTriangle(t *testing.T) {
	g := triangle(t)
	res := StronglyConnectedComponents(g)
	if res.Count != 1 {
		t.Fatalf("SCC count = %d, want 1", res.Count)
	}
	if !res.SameComponent(0, 2) {
		t.Error("triangle nodes not in same component")
	}
	id, size := res.Largest()
	if id != 0 || size != 3 {
		t.Errorf("Largest = (%d,%d), want (0,3)", id, size)
	}
}

func TestSCCChain(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}})
	res := StronglyConnectedComponents(g)
	if res.Count != 3 {
		t.Fatalf("SCC count = %d, want 3", res.Count)
	}
	if res.SameComponent(0, 1) {
		t.Error("chain nodes wrongly in same component")
	}
}

func TestSCCTwoCyclesBridge(t *testing.T) {
	// Cycle {0,1}, cycle {2,3}, bridge 1->2.
	g := mustBuild(t, 4, []Edge{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}})
	res := StronglyConnectedComponents(g)
	if res.Count != 2 {
		t.Fatalf("SCC count = %d, want 2", res.Count)
	}
	if !res.SameComponent(0, 1) || !res.SameComponent(2, 3) {
		t.Error("cycle members split across components")
	}
	if res.SameComponent(0, 2) {
		t.Error("bridged cycles merged")
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 0}})
	res := StronglyConnectedComponents(g)
	if res.Count != 2 {
		t.Errorf("SCC count = %d, want 2", res.Count)
	}
}

func TestSCCEmptyAndSingle(t *testing.T) {
	var empty Graph
	if got := StronglyConnectedComponents(&empty); got.Count != 0 {
		t.Errorf("empty graph SCC count = %d", got.Count)
	}
	single := mustBuild(t, 1, nil)
	if got := StronglyConnectedComponents(single); got.Count != 1 {
		t.Errorf("single node SCC count = %d", got.Count)
	}
}

func TestSCCSameComponentBounds(t *testing.T) {
	g := triangle(t)
	res := StronglyConnectedComponents(g)
	if res.SameComponent(-1, 0) || res.SameComponent(0, 99) {
		t.Error("SameComponent accepted out-of-range node")
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// A 50k-node path would blow a recursive Tarjan; ours is iterative.
	const n = 50000
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := StronglyConnectedComponents(g)
	if res.Count != n {
		t.Errorf("SCC count = %d, want %d", res.Count, n)
	}
}

func TestSCCSizesSumToN(t *testing.T) {
	g := randomGraph(42, 60, 0.08)
	res := StronglyConnectedComponents(g)
	var sum int32
	for _, s := range res.Sizes {
		sum += s
	}
	if int(sum) != g.NumNodes() {
		t.Errorf("component sizes sum to %d, want %d", sum, g.NumNodes())
	}
}

func TestStats(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 1}, {1, 0}, {1, 2}, {3, 3}})
	s := ComputeStats(g)
	if s.Nodes != 5 || s.Edges != 4 {
		t.Errorf("stats N=%d M=%d", s.Nodes, s.Edges)
	}
	if s.SelfLoops != 1 {
		t.Errorf("SelfLoops = %d, want 1", s.SelfLoops)
	}
	if s.Dangling != 2 { // nodes 2 and 4
		t.Errorf("Dangling = %d, want 2", s.Dangling)
	}
	if s.Isolated != 1 { // node 4
		t.Errorf("Isolated = %d, want 1", s.Isolated)
	}
	if s.MaxOutDegree != 2 {
		t.Errorf("MaxOutDegree = %d, want 2", s.MaxOutDegree)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}
