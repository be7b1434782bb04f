package core

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

func TestListCycles(t *testing.T) {
	// Cycles through 0: (0,1) len 2 and (0,1,2) len 3.
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 0), edge(1, 2), edge(2, 0)})
	cycles, total, err := ListCycles(nil, g, 0, Params{K: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(cycles) != 2 {
		t.Fatalf("total=%d listed=%d", total, len(cycles))
	}
	// Shortest first.
	if cycles[0].Len() != 2 || cycles[1].Len() != 3 {
		t.Errorf("lengths = %d, %d", cycles[0].Len(), cycles[1].Len())
	}
	labels := cycles[0].Labels(g)
	if len(labels) != 3 || labels[0] != labels[len(labels)-1] {
		t.Errorf("labels = %v", labels)
	}
}

func TestListCyclesLimit(t *testing.T) {
	g := completeDigraph(t, 5)
	cycles, total, err := ListCycles(nil, g, 0, Params{K: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 3 {
		t.Errorf("listed %d cycles with limit 3", len(cycles))
	}
	if total <= 3 {
		t.Errorf("total = %d, expected full count beyond limit", total)
	}
}

func TestListCyclesValidation(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{edge(0, 1)})
	if _, _, err := ListCycles(nil, g, 0, Params{K: 0}, 0); err == nil {
		t.Error("accepted K=0")
	}
	if _, _, err := ListCycles(nil, g, 7, Params{K: 3}, 0); err == nil {
		t.Error("accepted invalid reference")
	}
}

func TestCyclesThrough(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 0), edge(1, 2), edge(2, 0)})
	through2, err := CyclesThrough(nil, g, 0, 2, Params{K: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(through2) != 1 || through2[0].Len() != 3 {
		t.Errorf("cycles through node 2: %v", through2)
	}
	if _, err := CyclesThrough(nil, g, 0, 99, Params{K: 3}, 0); err == nil {
		t.Error("accepted invalid node")
	}
	limited, err := CyclesThrough(nil, g, 0, 1, Params{K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Errorf("limit ignored: %d", len(limited))
	}
}

func TestLabelsOfEmptyCycle(t *testing.T) {
	var c Cycle
	g := mustGraph(t, 1, nil)
	if got := c.Labels(g); len(got) != 0 {
		t.Errorf("empty cycle labels = %v", got)
	}
}

// TestListCyclesShortestFirst: on 0→1→2→3→0 plus 0↔4 the depth-first
// enumeration meets the 4-cycle before the 2-cycle, yet the one cycle
// a limit of 1 lists is the shortest.
func TestListCyclesShortestFirst(t *testing.T) {
	g := mustGraph(t, 5, []graph.Edge{edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 0), edge(0, 4), edge(4, 0)})
	cycles, total, err := ListCycles(nil, g, 0, Params{K: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(cycles) != 1 || !slices.Equal(cycles[0].Nodes, []graph.NodeID{0, 4}) {
		t.Fatalf("limit 1: total %d, cycles %v; want total 2 and [[0 4]]", total, cycles)
	}
	through, err := CyclesThrough(nil, g, 0, 0, Params{K: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(through) != 1 || !slices.Equal(through[0].Nodes, []graph.NodeID{0, 4}) {
		t.Fatalf("CyclesThrough limit 1: %v, want [[0 4]]", through)
	}
}

// referenceCycles is the order ListCycles promises, computed the plain
// way: every cycle through r from an unpruned depth-first search, sorted
// by length and then by node sequence.
func referenceCycles(g *graph.Graph, r graph.NodeID, k int) []Cycle {
	var all []Cycle
	path := []graph.NodeID{r}
	var dfs func(v graph.NodeID)
	dfs = func(v graph.NodeID) {
		for _, w := range g.Out(v) {
			switch {
			case w == r:
				if len(path) >= 2 {
					all = append(all, Cycle{Nodes: slices.Clone(path)})
				}
			case len(path) < k && !slices.Contains(path, w):
				path = append(path, w)
				dfs(w)
				path = path[:len(path)-1]
			}
		}
	}
	dfs(r)
	slices.SortFunc(all, func(a, b Cycle) int {
		if a.Len() != b.Len() {
			return a.Len() - b.Len()
		}
		return slices.Compare(a.Nodes, b.Nodes)
	})
	return all
}

// TestListCyclesMatchesReference holds ListCycles and CyclesThrough to
// the reference order, cut at several limits, on the random digraphs
// of TestPrunedMatchesNaiveProperty.
func TestListCyclesMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		g, r, k := propertyGraph(seed)
		all := referenceCycles(g, r, k)
		i := graph.NodeID(uint64(seed) % uint64(g.NumNodes()))
		var through []Cycle
		for _, c := range all {
			if slices.Contains(c.Nodes, i) {
				through = append(through, c)
			}
		}
		for _, limit := range []int{0, 1, 2, 5} {
			got, total, err := ListCycles(nil, g, r, Params{K: k}, limit)
			if err != nil || total != int64(len(all)) || !sameCycles(got, cut(all, limit)) {
				t.Logf("seed %d, limit %d: ListCycles %v (total %d, err %v), want %v (total %d)",
					seed, limit, got, total, err, cut(all, limit), len(all))
				return false
			}
			gotThrough, err := CyclesThrough(nil, g, r, i, Params{K: k}, limit)
			if err != nil || !sameCycles(gotThrough, cut(through, limit)) {
				t.Logf("seed %d, limit %d: CyclesThrough %d = %v (err %v), want %v",
					seed, limit, i, gotThrough, err, cut(through, limit))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// cut returns the first limit cycles (all of them when limit ≤ 0).
func cut(cycles []Cycle, limit int) []Cycle {
	if limit > 0 && len(cycles) > limit {
		return cycles[:limit]
	}
	return cycles
}

func sameCycles(a, b []Cycle) bool {
	return slices.EqualFunc(a, b, func(x, y Cycle) bool { return slices.Equal(x.Nodes, y.Nodes) })
}

// TestCyclesThroughCopiesBoundedByLimit: CyclesThrough copies at most
// limit cycles of each length, not every cycle through r. Counted in
// allocations: through node 0 of complete-50 at K=4 run over 110,000
// cycles, and copying each would allocate once per cycle.
func TestCyclesThroughCopiesBoundedByLimit(t *testing.T) {
	g := completeDigraph(t, 50)
	const k = 4
	for _, limit := range []int{1, 10} {
		allocs := testing.AllocsPerRun(3, func() {
			cycles, err := CyclesThrough(nil, g, 0, 7, Params{K: k}, limit)
			if err != nil || len(cycles) != limit {
				t.Fatalf("limit %d: %d cycles, err %v", limit, len(cycles), err)
			}
		})
		if bound := float64(2*limit*(k-1) + 64); allocs > bound {
			t.Errorf("limit %d: %.0f allocations, want at most %.0f", limit, allocs, bound)
		}
	}
}
