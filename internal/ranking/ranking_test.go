package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// labeledGraph builds a small labeled graph with the given node names
// (edges are irrelevant for ranking logic; one chain edge keeps the
// builder happy).
func labeledGraph(t *testing.T, names ...string) *graph.Graph {
	t.Helper()
	b := graph.NewLabeledBuilder()
	for _, n := range names {
		b.AddNode(n)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustResult(t *testing.T, algo string, g *graph.Graph, scores []float64) *Result {
	t.Helper()
	r, err := NewResult(algo, g, scores)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewResultLengthCheck(t *testing.T) {
	g := labeledGraph(t, "a", "b")
	if _, err := NewResult("x", g, []float64{1}); err == nil {
		t.Fatal("accepted wrong-length scores")
	}
}

func TestTopOrdering(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c", "d")
	r := mustResult(t, "t", g, []float64{0.1, 0.9, 0.5, 0})
	top := r.Top(-1)
	want := []string{"b", "c", "a"}
	got := make([]string, len(top))
	for i, e := range top {
		got[i] = e.Label
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Top = %v, want %v", got, want)
	}
}

func TestTopExcludesZeroScores(t *testing.T) {
	g := labeledGraph(t, "a", "b")
	r := mustResult(t, "t", g, []float64{0, 0.5})
	if top := r.Top(-1); len(top) != 1 || top[0].Label != "b" {
		t.Errorf("Top = %v, want only b", top)
	}
}

func TestTopTieBreaksByLabel(t *testing.T) {
	g := labeledGraph(t, "zebra", "apple", "mango")
	r := mustResult(t, "t", g, []float64{0.5, 0.5, 0.5})
	got := r.TopLabels(-1)
	want := []string{"apple", "mango", "zebra"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie order = %v, want %v", got, want)
	}
}

func TestTopK(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c")
	r := mustResult(t, "t", g, []float64{3, 2, 1})
	if top := r.Top(2); len(top) != 2 {
		t.Errorf("Top(2) len = %d", len(top))
	}
	if top := r.Top(0); len(top) != 0 {
		t.Errorf("Top(0) len = %d", len(top))
	}
	if top := r.Top(99); len(top) != 3 {
		t.Errorf("Top(99) len = %d", len(top))
	}
}

func TestTopFiltered(t *testing.T) {
	g := labeledGraph(t, "ref", "x", "y")
	r := mustResult(t, "t", g, []float64{10, 5, 1})
	ref, _ := g.NodeByLabel("ref")
	top := r.TopFiltered(-1, func(v graph.NodeID) bool { return v == ref })
	if len(top) != 2 || top[0].Label != "x" {
		t.Errorf("TopFiltered = %v", top)
	}
}

// topBySort is the selection TopFiltered replaced — collect every
// candidate, sort them all, cut — kept as the oracle the bounded
// selection must match entry for entry.
func topBySort(r *Result, k int, exclude func(graph.NodeID) bool) []Entry {
	entries := make([]Entry, 0, len(r.Scores))
	for v, s := range r.Scores {
		id := graph.NodeID(v)
		if s == 0 || (exclude != nil && exclude(id)) {
			continue
		}
		entries = append(entries, Entry{Node: id, Label: r.g.Label(id), Score: s})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		if entries[i].Label != entries[j].Label {
			return entries[i].Label < entries[j].Label
		}
		return entries[i].Node < entries[j].Node
	})
	if k >= 0 && k < len(entries) {
		entries = entries[:k]
	}
	return entries
}

// Property: the bounded selection returns exactly what the full sort
// returns — on score vectors that are mostly ties and zeros, on a
// labeled graph whose label order is not its id order and on an
// unlabeled one (where "10" sorts before "2"), with and without an
// exclusion, at every k around the edges.
func TestTopFilteredMatchesFullSort(t *testing.T) {
	const n = 300
	b := graph.NewLabeledBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("node-%03d", (i*7919)%n))
	}
	labeled, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	unlabeled, err := graph.FromEdges(n, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0, 0, 0.125, 0.25, 0.25, 0.5, 1}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		scores := make([]float64, n)
		for i := range scores {
			switch trial % 4 {
			case 0: // a handful of levels: nearly everything ties
				scores[i] = levels[rng.Intn(len(levels))]
			case 1: // distinct scores, a third of them zero
				if rng.Intn(3) > 0 {
					scores[i] = rng.Float64()
				}
			case 2: // one score for every node
				scores[i] = 0.5
			case 3: // fewer non-zero scores than any k but 0 and 1
				if i%100 == 0 {
					scores[i] = 1 / float64(i+1)
				}
			}
		}
		for _, g := range []*graph.Graph{labeled, unlabeled} {
			r := mustResult(t, "t", g, scores)
			for _, exclude := range []func(graph.NodeID) bool{nil, func(v graph.NodeID) bool { return v%3 == 0 }} {
				for _, k := range []int{-1, 0, 1, 50, n, n + 1} {
					got, want := r.TopFiltered(k, exclude), topBySort(r, k, exclude)
					if got == nil {
						t.Fatalf("trial %d k=%d: nil top list (must encode as [])", trial, k)
					}
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("trial %d labeled=%v exclude=%v k=%d:\n got %v\nwant %v",
							trial, g == labeled, exclude != nil, k, got, want)
					}
				}
			}
		}
	}
}

func TestScoreOutOfRange(t *testing.T) {
	g := labeledGraph(t, "a")
	r := mustResult(t, "t", g, []float64{0.7})
	if r.Score(-1) != 0 || r.Score(5) != 0 {
		t.Error("out-of-range Score not 0")
	}
	if r.Score(0) != 0.7 {
		t.Error("Score(0) wrong")
	}
}

func TestRank(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c")
	r := mustResult(t, "t", g, []float64{0.2, 0.9, 0.5})
	ranks := r.Rank()
	want := []int{3, 1, 2}
	if !reflect.DeepEqual(ranks, want) {
		t.Errorf("Rank = %v, want %v", ranks, want)
	}
}

func TestNormalize(t *testing.T) {
	g := labeledGraph(t, "a", "b")
	r := mustResult(t, "t", g, []float64{2, 6})
	shared := r.Scores // e.g. the vector a Cached result shares
	r.Normalize()
	if math.Abs(r.Sum()-1) > 1e-12 {
		t.Errorf("Sum after Normalize = %v", r.Sum())
	}
	if math.Abs(r.Scores[1]-0.75) > 1e-12 {
		t.Errorf("Scores[1] = %v, want 0.75", r.Scores[1])
	}
	if shared[0] != 2 || shared[1] != 6 {
		t.Errorf("Normalize wrote the slice it was given: %v", shared)
	}
	zero := mustResult(t, "t", g, []float64{0, 0})
	zero.Normalize() // must not divide by zero
	if zero.Sum() != 0 {
		t.Error("normalizing zero vector changed it")
	}
}

func TestJaccardAtK(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c", "d")
	r1 := mustResult(t, "x", g, []float64{4, 3, 2, 1})
	r2 := mustResult(t, "y", g, []float64{4, 3, 0.1, 0.2})
	// top2: {a,b} vs {a,b} -> 1.0
	if got := JaccardAtK(r1, r2, 2); got != 1 {
		t.Errorf("Jaccard@2 = %v, want 1", got)
	}
	// top3: {a,b,c} vs {a,b,d} -> 2/4
	if got := JaccardAtK(r1, r2, 3); got != 0.5 {
		t.Errorf("Jaccard@3 = %v, want 0.5", got)
	}
}

func TestJaccardEmptyBothIsOne(t *testing.T) {
	g := labeledGraph(t, "a")
	r1 := mustResult(t, "x", g, []float64{0})
	r2 := mustResult(t, "y", g, []float64{0})
	if got := JaccardAtK(r1, r2, 5); got != 1 {
		t.Errorf("Jaccard of empty sets = %v, want 1", got)
	}
}

func TestKendallTauPerfectAndReversed(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c", "d")
	r1 := mustResult(t, "x", g, []float64{4, 3, 2, 1})
	same := mustResult(t, "y", g, []float64{40, 30, 20, 10})
	rev := mustResult(t, "z", g, []float64{1, 2, 3, 4})
	tau, err := KendallTau(r1, same, -1)
	if err != nil || math.Abs(tau-1) > 1e-12 {
		t.Errorf("tau(same) = %v, %v; want 1", tau, err)
	}
	tau, err = KendallTau(r1, rev, -1)
	if err != nil || math.Abs(tau+1) > 1e-12 {
		t.Errorf("tau(rev) = %v, %v; want -1", tau, err)
	}
}

func TestKendallTauTooFewItems(t *testing.T) {
	g := labeledGraph(t, "a", "b")
	r1 := mustResult(t, "x", g, []float64{1, 0})
	r2 := mustResult(t, "y", g, []float64{1, 0})
	if _, err := KendallTau(r1, r2, 1); err == nil {
		t.Error("tau accepted single item")
	}
}

func TestRBOIdenticalIsOne(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c", "d", "e")
	r := mustResult(t, "x", g, []float64{5, 4, 3, 2, 1})
	got, err := RBO(r, r, 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("RBO(self) = %v, want 1", got)
	}
}

func TestRBODisjointIsZero(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c", "d")
	r1 := mustResult(t, "x", g, []float64{2, 1, 0, 0})
	r2 := mustResult(t, "y", g, []float64{0, 0, 2, 1})
	got, err := RBO(r1, r2, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("RBO(disjoint) = %v, want 0", got)
	}
}

func TestRBOParamValidation(t *testing.T) {
	g := labeledGraph(t, "a")
	r := mustResult(t, "x", g, []float64{1})
	if _, err := RBO(r, r, 1, 0); err == nil {
		t.Error("RBO accepted p=0")
	}
	if _, err := RBO(r, r, 1, 1); err == nil {
		t.Error("RBO accepted p=1")
	}
	if _, err := RBO(r, r, 0, 0.9); err == nil {
		t.Error("RBO accepted k=0")
	}
}

func TestRBOTopWeighted(t *testing.T) {
	// Agreement at the top must count more than at the bottom.
	g := labeledGraph(t, "a", "b", "c", "d", "e", "f")
	base := mustResult(t, "x", g, []float64{6, 5, 4, 3, 0, 0})
	topAgree := mustResult(t, "y", g, []float64{6, 5, 0, 0, 4, 3}) // shares ranks 1-2
	botAgree := mustResult(t, "z", g, []float64{0, 0, 3, 4, 6, 5}) // shares ranks 3-4 (reversed pos)
	hi, err := RBO(base, topAgree, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := RBO(base, botAgree, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Errorf("RBO top-agreement %v not greater than bottom-agreement %v", hi, lo)
	}
}

func TestSpearmanFootruleIdentical(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c")
	r := mustResult(t, "x", g, []float64{3, 2, 1})
	d, err := SpearmanFootrule(r, r, -1)
	if err != nil || d != 0 {
		t.Errorf("footrule(self) = %v, %v; want 0", d, err)
	}
}

func TestCompareAt(t *testing.T) {
	g := labeledGraph(t, "a", "b", "c", "d")
	r1 := mustResult(t, "alg1", g, []float64{4, 3, 2, 1})
	r2 := mustResult(t, "alg2", g, []float64{4, 3, 1, 2})
	ag, err := CompareAt(r1, r2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ag.AlgorithmA != "alg1" || ag.AlgorithmB != "alg2" || ag.K != 4 {
		t.Errorf("agreement metadata wrong: %+v", ag)
	}
	if ag.Jaccard != 1 {
		t.Errorf("Jaccard = %v, want 1 (same item sets)", ag.Jaccard)
	}
	if ag.RBO <= 0 || ag.RBO > 1 {
		t.Errorf("RBO out of range: %v", ag.RBO)
	}
}

// Property: metric bounds hold on random score vectors.
func TestMetricBoundsProperty(t *testing.T) {
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewLabeledBuilder()
		for _, n := range names {
			b.AddNode(n)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		s1 := make([]float64, len(names))
		s2 := make([]float64, len(names))
		for i := range s1 {
			s1[i] = rng.Float64()
			s2[i] = rng.Float64()
		}
		r1, _ := NewResult("a", g, s1)
		r2, _ := NewResult("b", g, s2)
		j := JaccardAtK(r1, r2, 4)
		if j < 0 || j > 1 {
			return false
		}
		// Jaccard symmetry.
		if j != JaccardAtK(r2, r1, 4) {
			return false
		}
		rbo, err := RBO(r1, r2, 5, 0.9)
		if err != nil || rbo < 0 || rbo > 1+1e-12 {
			return false
		}
		tau, err := KendallTau(r1, r2, -1)
		if err != nil || tau < -1-1e-12 || tau > 1+1e-12 {
			return false
		}
		fr, err := SpearmanFootrule(r1, r2, -1)
		if err != nil || fr < 0 || fr > 1+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
