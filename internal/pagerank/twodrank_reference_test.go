package pagerank

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"strconv"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// referenceRank is ranking.Result.Rank as it was before the keyed
// rewrite (the ranking package's tests keep the same oracle): every
// node sorted by (score desc, label asc, id asc).
func referenceRank(r *ranking.Result) []int {
	n := len(r.Scores)
	g := r.Graph()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := r.Scores[ids[a]], r.Scores[ids[b]]
		if sa != sb {
			return sa > sb
		}
		la, lb := g.Label(ids[a]), g.Label(ids[b])
		if la != lb {
			return la < lb
		}
		return ids[a] < ids[b]
	})
	ranks := make([]int, n)
	for pos, id := range ids {
		ranks[id] = pos + 1
	}
	return ranks
}

// referenceCombine2D is the comparison-sort sweep Combine2D replaced:
// all N nodes sorted by (square step, vertical border first, position
// along the border, id). It stays as the oracle the O(N) sweep must
// match bit for bit.
func referenceCombine2D(g *graph.Graph, prRes, crRes *ranking.Result, name string) (*ranking.Result, error) {
	n := g.NumNodes()
	kPR := referenceRank(prRes)
	kCR := referenceRank(crRes)

	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		u, v := ids[a], ids[b]
		su := max(kPR[u], kCR[u])
		sv := max(kPR[v], kCR[v])
		if su != sv {
			return su < sv
		}
		uVert := kPR[u] == su
		vVert := kPR[v] == sv
		if uVert != vVert {
			return uVert
		}
		if uVert {
			if kCR[u] != kCR[v] {
				return kCR[u] < kCR[v]
			}
		} else {
			if kPR[u] != kPR[v] {
				return kPR[u] < kPR[v]
			}
		}
		return u < v
	})

	scores := make([]float64, n)
	for pos, v := range ids {
		scores[v] = 1 / float64(pos+1)
	}
	res, err := ranking.NewResult(name, g, scores)
	if err != nil {
		return nil, err
	}
	res.Iterations = prRes.Iterations + crRes.Iterations
	return res, nil
}

// checkCombine2D fails t unless Combine2D and the reference agree on
// the legs: same scores bit for bit, same iterations, same name.
func checkCombine2D(t *testing.T, what string, g *graph.Graph, pr, cr *ranking.Result) {
	t.Helper()
	got, err := Combine2D(g, pr, cr, "p2drank")
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := referenceCombine2D(g, pr, cr, "p2drank")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sweep differs from the reference\n got %v\nwant %v", what, got.Scores, want.Scores)
	}
}

// TestCombine2DMatchesReference: on random legs full of ties and zero
// tails, over unlabeled graphs whose size crosses 10, 100 and 1000 and
// over labeled graphs whose labels sort unlike their ids, on n = 0 and
// 1, and on ba-medium's ppr and pcheirank legs from five sources, the
// O(N) sweep returns exactly the comparison sort's result.
func TestCombine2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	levels := []float64{0, 0, 0, 0.125, 0.25, 0.25, 0.5, 1}
	leg := func(g *graph.Graph, mode int) *ranking.Result {
		scores := make([]float64, g.NumNodes())
		for i := range scores {
			switch mode {
			case 0: // a handful of levels: nearly everything ties
				scores[i] = levels[rng.Intn(len(levels))]
			case 1: // distinct scores, a third of them zero
				if rng.Intn(3) > 0 {
					scores[i] = rng.Float64()
				}
			case 2: // a short support ahead of a long zero tail
				if rng.Intn(20) == 0 {
					scores[i] = rng.Float64()
				}
			}
		}
		r, err := ranking.NewResult("leg", g, scores)
		if err != nil {
			t.Fatal(err)
		}
		r.Iterations = rng.Intn(100)
		return r
	}
	for _, n := range []int{0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001} {
		unlabeled, err := graph.FromEdges(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := graph.NewLabeledBuilder()
		for _, k := range rng.Perm(n) {
			b.AddNode("n" + strconv.Itoa(k))
		}
		labeled, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{unlabeled, labeled} {
			for prMode := 0; prMode < 3; prMode++ {
				for crMode := 0; crMode < 3; crMode++ {
					what := fmt.Sprintf("n=%d labeled=%v modes=%d,%d", n, g == labeled, prMode, crMode)
					checkCombine2D(t, what, g, leg(g, prMode), leg(g, crMode))
				}
			}
		}
	}

	g := baMedium(t)
	for _, src := range []graph.NodeID{0, 7, 42, 1234, 9999} {
		p := Params{Alpha: DefaultAlpha, Seeds: []graph.NodeID{src}}
		pr, err := Personalized(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := PersonalizedCheiRank(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		checkCombine2D(t, fmt.Sprintf("ba-medium source %d", src), g, pr, cr)
	}
}

// TestCombine2DRejectsLegLength: a leg with fewer or more scores than g
// has nodes is an error, not an index panic or a silently ignored tail.
func TestCombine2DRejectsLegLength(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	legOf := func(n int) *ranking.Result {
		small, err := graph.FromEdges(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ranking.NewResult("leg", small, make([]float64, n))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range []struct {
		name   string
		pr, cr int
	}{
		{"short pagerank leg", 2, 3},
		{"short cheirank leg", 3, 2},
		{"long pagerank leg", 4, 3},
		{"long cheirank leg", 3, 4},
	} {
		if _, err := Combine2D(g, legOf(tc.pr), legOf(tc.cr), "2drank"); err == nil {
			t.Errorf("%s: Combine2D accepted %d and %d scores for 3 nodes", tc.name, tc.pr, tc.cr)
		}
	}
}

// TestCombine2DAllocationsIndependentOfN: the ranks and the sweep
// allocate whole vectors, never per node or per comparison, so a
// hundred nodes and ten thousand cost the same number of allocations.
// The collector is off while counting: a cycle it starts allocates for
// itself, and that would count against the sweep.
func TestCombine2DAllocationsIndependentOfN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(1))
	allocs := func(n int) float64 {
		g, err := graph.FromEdges(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		legs := [2]*ranking.Result{}
		for i := range legs {
			scores := make([]float64, n)
			for v := range scores {
				if rng.Intn(4) > 0 {
					scores[v] = float64(rng.Intn(8))
				}
			}
			if legs[i], err = ranking.NewResult("leg", g, scores); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Combine2D(g, legs[0], legs[1], "2drank"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Errorf("Combine2D allocates %v times on 100 nodes, %v on 10000", small, large)
	}
}

func baMedium(t testing.TB) *graph.Graph {
	t.Helper()
	cat, err := datasets.BuiltinCatalogSubset("ba-medium")
	if err != nil {
		t.Fatal(err)
	}
	d, err := cat.Get("ba-medium")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
