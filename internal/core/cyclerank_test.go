package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

func edge(u, v graph.NodeID) graph.Edge { return graph.Edge{From: u, To: v} }

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func expWeight(n int) float64 { return math.Exp(-float64(n)) }

func TestComputeTriangle(t *testing.T) {
	// One 3-cycle 0->1->2->0; reference 0, K=3.
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 2), edge(2, 0)})
	res, err := Compute(nil, g, 0, Params{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesFound != 1 {
		t.Fatalf("CyclesFound = %d, want 1", res.CyclesFound)
	}
	want := expWeight(3)
	for v := 0; v < 3; v++ {
		if math.Abs(res.Scores[v]-want) > 1e-15 {
			t.Errorf("score[%d] = %v, want %v", v, res.Scores[v], want)
		}
	}
}

func TestComputeTriangleKTooSmall(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 2), edge(2, 0)})
	res, err := Compute(nil, g, 0, Params{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesFound != 0 {
		t.Errorf("found %d cycles with K=2 in a 3-cycle", res.CyclesFound)
	}
}

func TestComputeMutualPair(t *testing.T) {
	// 0<->1: a single 2-cycle.
	g := mustGraph(t, 2, []graph.Edge{edge(0, 1), edge(1, 0)})
	res, err := Compute(nil, g, 0, Params{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesFound != 1 {
		t.Fatalf("CyclesFound = %d, want 1", res.CyclesFound)
	}
	want := expWeight(2)
	if math.Abs(res.Scores[0]-want) > 1e-15 || math.Abs(res.Scores[1]-want) > 1e-15 {
		t.Errorf("scores = %v, want both %v", res.Scores, want)
	}
}

func TestSelfLoopNotACycle(t *testing.T) {
	// Per Eq. 1 the sum starts at n=2, so a self-loop (length 1) never
	// counts, even though it is technically a cycle.
	g := mustGraph(t, 2, []graph.Edge{edge(0, 0), edge(0, 1), edge(1, 0)})
	res, err := Compute(nil, g, 0, Params{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesFound != 1 {
		t.Errorf("CyclesFound = %d, want 1 (self-loop excluded)", res.CyclesFound)
	}
}

func TestReferenceGetsMaximumScore(t *testing.T) {
	// "By definition, the reference node gets the maximum Cyclerank
	// score as it is included in all the cycles considered."
	g := mustGraph(t, 5, []graph.Edge{
		edge(0, 1), edge(1, 0),
		edge(0, 2), edge(2, 0),
		edge(1, 2), edge(2, 1),
		edge(3, 4), edge(4, 3),
	})
	res, err := Compute(nil, g, 0, Params{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 5; v++ {
		if res.Scores[v] > res.Scores[0] {
			t.Errorf("node %d outscored the reference: %v > %v", v, res.Scores[v], res.Scores[0])
		}
	}
	// Nodes 3,4 share no cycle with 0: zero score.
	if res.Scores[3] != 0 || res.Scores[4] != 0 {
		t.Errorf("disconnected cycle scored: %v", res.Scores[3:])
	}
}

func TestHubWithoutBacklinksScoresZero(t *testing.T) {
	// The PPR failure mode: node H receives edges from everyone but
	// links back to no one. CycleRank must give H zero.
	const hub = 4
	g := mustGraph(t, 5, []graph.Edge{
		edge(0, 1), edge(1, 0), // community around 0
		edge(0, hub), edge(1, hub), edge(2, hub), edge(3, hub),
	})
	res, err := Compute(nil, g, 0, Params{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[hub] != 0 {
		t.Errorf("no-backlink hub scored %v, want 0", res.Scores[hub])
	}
	if res.Scores[1] == 0 {
		t.Error("mutual neighbor scored 0")
	}
}

func TestTwoCyclesSharedNode(t *testing.T) {
	// Cycles 0->1->0 and 0->1->2->0 share nodes 0,1.
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 0), edge(1, 2), edge(2, 0)})
	res, err := Compute(nil, g, 0, Params{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesFound != 2 {
		t.Fatalf("CyclesFound = %d, want 2", res.CyclesFound)
	}
	want0 := expWeight(2) + expWeight(3)
	want2 := expWeight(3)
	if math.Abs(res.Scores[0]-want0) > 1e-15 {
		t.Errorf("score[0] = %v, want %v", res.Scores[0], want0)
	}
	if math.Abs(res.Scores[2]-want2) > 1e-15 {
		t.Errorf("score[2] = %v, want %v", res.Scores[2], want2)
	}
}

func TestScoringFunctions(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{edge(0, 1), edge(1, 0)})
	cases := map[string]float64{
		ScoringExponential: math.Exp(-2),
		ScoringLinear:      0.5,
		ScoringQuadratic:   0.25,
		ScoringConstant:    1,
	}
	for name, want := range cases {
		fn, err := ScoringByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compute(nil, g, 0, Params{K: 2, Scoring: fn, ScoringName: name})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Scores[1]-want) > 1e-15 {
			t.Errorf("%s: score = %v, want %v", name, res.Scores[1], want)
		}
	}
	if _, err := ScoringByName("bogus"); err == nil {
		t.Error("ScoringByName accepted bogus name")
	}
	if names := ScoringNames(); len(names) != 4 {
		t.Errorf("ScoringNames = %v, want 4 entries", names)
	}
}

func TestParamValidation(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{edge(0, 1), edge(1, 0)})
	if _, err := Compute(nil, g, 0, Params{K: 1}); err == nil {
		t.Error("accepted K=1")
	}
	if _, err := Compute(nil, g, 99, Params{K: 3}); err == nil {
		t.Error("accepted invalid reference node")
	}
	if _, err := Compute(nil, g, -1, Params{K: 3}); err == nil {
		t.Error("accepted negative reference node")
	}
	if _, err := CountCycles(nil, g, 0, 1); err == nil {
		t.Error("CountCycles accepted K=1")
	}
	if _, err := CountCycles(nil, g, 77, 3); err == nil {
		t.Error("CountCycles accepted invalid reference")
	}
	if _, err := CycleCensus(nil, g, 0, 0); err == nil {
		t.Error("CycleCensus accepted K=0")
	}
	if _, err := CycleCensus(nil, g, 9, 3); err == nil {
		t.Error("CycleCensus accepted invalid reference")
	}
}

func TestCompleteGraphCycleCounts(t *testing.T) {
	// In K4 (complete digraph on 4 nodes), cycles through a fixed node:
	// length 2: 3 (one per other node)
	// length 3: 3·2 = 6 ordered pairs
	// length 4: 3·2·1 = 6 ordered triples
	g := completeDigraph(t, 4)
	census, err := CycleCensus(nil, g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 3, 6, 6}
	for n, c := range want {
		if census[n] != c {
			t.Errorf("census[%d] = %d, want %d", n, census[n], c)
		}
	}
	total, err := CountCycles(nil, g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if total != 15 {
		t.Errorf("CountCycles = %d, want 15", total)
	}
}

func completeDigraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCancellation(t *testing.T) {
	// A complete digraph on 12 nodes has an astronomically large cycle
	// count at K=12; cancellation must stop the enumeration.
	g := completeDigraph(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, g, 0, Params{K: 12}); err == nil {
		t.Fatal("cancelled computation returned no error")
	}
}

func TestNaiveMatchesHandComputed(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 0), edge(1, 2), edge(2, 0)})
	res, census, err := NaiveScores(g, 0, Params{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if census[2] != 1 || census[3] != 1 {
		t.Errorf("census = %v", census)
	}
	if res.CyclesFound != 2 {
		t.Errorf("CyclesFound = %d, want 2", res.CyclesFound)
	}
}

func TestNaiveValidation(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{edge(0, 1)})
	if _, _, err := NaiveScores(g, 0, Params{K: 0}); err == nil {
		t.Error("naive accepted K=0")
	}
	if _, _, err := NaiveScores(g, 9, Params{K: 3}); err == nil {
		t.Error("naive accepted invalid reference")
	}
}

// The central property test: the pruned enumerator and the naive
// oracle agree on scores and cycle counts for random digraphs, for
// every K and scoring function.
func TestPrunedMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, r, k := propertyGraph(seed)
		p := Params{K: k}
		fast, err := Compute(nil, g, r, p)
		if err != nil {
			return false
		}
		slow, _, err := NaiveScores(g, r, p)
		if err != nil {
			return false
		}
		if fast.CyclesFound != slow.CyclesFound {
			t.Logf("seed %d: cycle count %d (pruned) vs %d (naive)", seed, fast.CyclesFound, slow.CyclesFound)
			return false
		}
		for v := range fast.Scores {
			if math.Abs(fast.Scores[v]-slow.Scores[v]) > 1e-12 {
				t.Logf("seed %d: score[%d] %v vs %v", seed, v, fast.Scores[v], slow.Scores[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// propertyGraph is the random digraph of seed the property tests run
// on: 4–13 nodes, three edge draws per node, a random reference r and
// K in [2, 5].
func propertyGraph(seed int64) (*graph.Graph, graph.NodeID, int) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(10)
	b := graph.NewBuilder(n)
	for i := 0; i < n*3; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // every node id drawn is in [0, n)
	}
	return g, graph.NodeID(rng.Intn(n)), 2 + rng.Intn(4)
}

// Property: CycleRank support is confined to r's SCC.
func TestSupportWithinSCCProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		r := graph.NodeID(rng.Intn(n))
		res, err := Compute(nil, g, r, Params{K: 5})
		if err != nil {
			return false
		}
		scc := graph.StronglyConnectedComponents(g)
		for v, s := range res.Scores {
			if s > 0 && !scc.SameComponent(r, graph.NodeID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: increasing K never decreases any score (more cycles can
// only add weight).
func TestKMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		r := graph.NodeID(rng.Intn(n))
		small, err := Compute(nil, g, r, Params{K: 3})
		if err != nil {
			return false
		}
		large, err := Compute(nil, g, r, Params{K: 5})
		if err != nil {
			return false
		}
		for v := range small.Scores {
			if large.Scores[v] < small.Scores[v]-1e-12 {
				return false
			}
		}
		return large.CyclesFound >= small.CyclesFound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	g := mustGraph(t, 3, nil)
	res, err := Compute(nil, g, 0, Params{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesFound != 0 || res.Sum() != 0 {
		t.Error("edgeless graph produced cycles")
	}
}

func TestDefaultScoringIsExponential(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{edge(0, 1), edge(1, 0)})
	res, err := Compute(nil, g, 0, Params{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[0]-math.Exp(-2)) > 1e-15 {
		t.Errorf("default scoring gave %v, want e^-2", res.Scores[0])
	}
}
