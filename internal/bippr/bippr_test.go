package bippr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// buildGraph assembles a graph from explicit edges.
func buildGraph(t *testing.T, n int, edges [][2]int32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGraph generates a deterministic random digraph. When cyclic,
// a Hamiltonian cycle guarantees every node has an out-edge (no
// dangling nodes).
func randomGraph(t testing.TB, n, extraEdges int, seed int64, cyclic bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if cyclic {
		for v := 0; v < n; v++ {
			b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n))
		}
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// exactForward computes π(source,·) exactly (to truncation K) under
// the package's convention: damping alpha, dangling nodes absorb.
// π(s,v) = (1−α)·Σ_k α^k · Pr[walk is at v after k steps].
func exactForward(g *graph.Graph, source graph.NodeID, alpha float64) []float64 {
	n := g.NumNodes()
	cur := make([]float64, n)
	next := make([]float64, n)
	out := make([]float64, n)
	cur[source] = 1
	weight := 1 - alpha
	for k := 0; k < 400; k++ {
		for v := 0; v < n; v++ {
			out[v] += weight * cur[v]
		}
		weight *= alpha
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < n; v++ {
			if cur[v] == 0 {
				continue
			}
			succ := g.Out(graph.NodeID(v))
			if len(succ) == 0 {
				continue // absorbed
			}
			share := cur[v] / float64(len(succ))
			for _, w := range succ {
				next[w] += share
			}
		}
		cur, next = next, cur
	}
	return out
}

func TestReversePushResidualInvariant(t *testing.T) {
	const (
		alpha = 0.85
		rmax  = 1e-3
	)
	graphs := map[string]*graph.Graph{
		"random-cyclic":   randomGraph(t, 60, 300, 7, true),
		"random-dangling": randomGraph(t, 60, 150, 11, false),
		"two-cliques": buildGraph(t, 6, [][2]int32{
			{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0},
			{3, 4}, {4, 3}, {2, 3}, {4, 0}, {4, 5},
		}),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			for _, target := range []graph.NodeID{0, graph.NodeID(g.NumNodes() / 2)} {
				idx, err := ReversePush(context.Background(), g, target, alpha, rmax)
				if err != nil {
					t.Fatal(err)
				}
				// Termination invariant: every residual strictly below rmax.
				idx.Residuals.ForEach(func(v graph.NodeID, r float64) bool {
					if r >= rmax {
						t.Errorf("target %d: residual[%d]=%g ≥ rmax=%g", target, v, r, rmax)
					}
					if r < 0 {
						t.Errorf("target %d: negative residual[%d]=%g", target, v, r)
					}
					return true
				})
				if idx.MaxResidual >= rmax {
					t.Errorf("target %d: MaxResidual=%g ≥ rmax=%g", target, idx.MaxResidual, rmax)
				}
				// Exactness invariant: for every source s,
				// π(s,t) = Estimates[s] + Σ_v π(s,v)·Residuals[v].
				for _, s := range []graph.NodeID{0, 1, graph.NodeID(g.NumNodes() - 1)} {
					forward := exactForward(g, s, alpha)
					reconstructed := idx.Estimates.Get(s)
					for v, r := range idx.Residuals.Dense() {
						reconstructed += forward[v] * r
					}
					if diff := math.Abs(forward[target] - reconstructed); diff > 1e-9 {
						t.Errorf("target %d source %d: invariant violated by %g (π=%g reconstructed=%g)",
							target, s, diff, forward[target], reconstructed)
					}
				}
			}
		})
	}
}

func TestReversePushEstimateBound(t *testing.T) {
	const (
		alpha = 0.85
		rmax  = 5e-4
	)
	g := randomGraph(t, 80, 400, 3, true)
	target := graph.NodeID(17)
	idx, err := ReversePush(context.Background(), g, target, alpha, rmax)
	if err != nil {
		t.Fatal(err)
	}
	// Additive bound: Estimates[s] ≤ π(s,t) < Estimates[s] + rmax.
	for s := 0; s < g.NumNodes(); s++ {
		exact := exactForward(g, graph.NodeID(s), alpha)[target]
		est := idx.Estimates.Get(graph.NodeID(s))
		if est > exact+1e-9 {
			t.Errorf("source %d: estimate %g exceeds exact %g", s, est, exact)
		}
		if exact-est >= rmax {
			t.Errorf("source %d: error %g ≥ rmax %g", s, exact-est, rmax)
		}
	}
}

func TestWalkEstimatorDeterministic(t *testing.T) {
	g := randomGraph(t, 50, 250, 5, true)
	weights := make([]float64, g.NumNodes())
	for i := range weights {
		weights[i] = float64(i%7) / 7
	}
	wv := NewDenseVector(weights)
	a := NewWalkEstimator(g, 0.85, 42, 0)
	b := NewWalkEstimator(g, 0.85, 42, 0)
	// Querying sources in different orders must not change estimates.
	var first [3]float64
	for i, s := range []graph.NodeID{4, 9, 30} {
		v, err := a.EstimateSum(context.Background(), s, 2000, wv, 1)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = v
	}
	for i, s := range []graph.NodeID{30, 9, 4} {
		v, err := b.EstimateSum(context.Background(), s, 2000, wv, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != first[2-i] {
			t.Errorf("source %d: order-dependent estimate %g vs %g", s, v, first[2-i])
		}
	}
	c := NewWalkEstimator(g, 0.85, 43, 0)
	v, err := c.EstimateSum(context.Background(), 4, 2000, wv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v == first[0] {
		t.Errorf("different seeds produced identical estimate %g", v)
	}
}

func TestWalkDistributionMatchesExact(t *testing.T) {
	g := randomGraph(t, 30, 150, 9, true)
	src := graph.NodeID(3)
	w := NewWalkEstimator(g, 0.85, 1, 0)
	dist, err := w.Distribution(context.Background(), src, 200000)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactForward(g, src, 0.85)
	for v := range dist {
		if diff := math.Abs(dist[v] - exact[v]); diff > 0.01 {
			t.Errorf("node %d: sampled %g exact %g (diff %g)", v, dist[v], exact[v], diff)
		}
	}
}

// TestBidirectionalAccuracy asserts pair estimates stay within
// tolerance of exact power-iteration PPR. Graphs are dangling-free so
// the package's convention coincides with the forward engines'.
func TestBidirectionalAccuracy(t *testing.T) {
	const tol = 2e-3
	p := Params{Alpha: 0.85, RMax: 1e-3, Walks: 50000, Seed: 1}
	graphs := map[string]*graph.Graph{
		"random-60":  randomGraph(t, 60, 300, 21, true),
		"random-120": randomGraph(t, 120, 500, 22, true),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			for _, pair := range [][2]graph.NodeID{{0, 1}, {5, 40}, {33, 33}, {2, 59}} {
				s, tgt := pair[0], pair[1]
				exact := exactForward(g, s, p.Alpha)[tgt]
				est, err := Bidirectional(context.Background(), g, s, tgt, p)
				if err != nil {
					t.Fatal(err)
				}
				if diff := math.Abs(est.Value - exact); diff > tol {
					t.Errorf("π(%d,%d): bidirectional %g vs exact %g (diff %g > %g)",
						s, tgt, est.Value, exact, diff, tol)
				}
			}
		})
	}
}

func TestTargetRankAdditiveBound(t *testing.T) {
	g := randomGraph(t, 70, 350, 31, true)
	tgt := graph.NodeID(12)
	p := Params{Alpha: 0.85, RMax: 1e-3}
	e := NewEstimator(0)
	res, err := e.TargetRank(context.Background(), g, tgt, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmTarget {
		t.Errorf("algorithm = %q, want %q", res.Algorithm, AlgorithmTarget)
	}
	for s := 0; s < g.NumNodes(); s++ {
		exact := exactForward(g, graph.NodeID(s), p.Alpha)[tgt]
		if err := exact - res.Scores[s]; err < -1e-9 || err >= p.RMax {
			t.Errorf("source %d: score %g, exact %g (error %g outside [0,%g))",
				s, res.Scores[s], exact, err, p.RMax)
		}
	}
	// The target itself receives at least the stop probability.
	if res.Scores[tgt] < 1-p.Alpha-p.RMax {
		t.Errorf("target self-score %g < 1-alpha-rmax", res.Scores[tgt])
	}
}

func TestEstimatorCache(t *testing.T) {
	g := randomGraph(t, 40, 200, 41, true)
	p := Params{Alpha: 0.85, RMax: 1e-3, Walks: 100}
	e := NewEstimator(2)

	// pair runs one query and checks whether it paid for its index:
	// a reused index reports zero pushes and counts a memory hit, a
	// computed one reports its pushes and counts a miss.
	pair := func(what string, source, target graph.NodeID, p Params, reused bool) {
		t.Helper()
		before := e.StoreStats()
		est, err := e.Pair(context.Background(), g, source, target, p)
		if err != nil {
			t.Fatal(err)
		}
		after := e.StoreStats()
		hits, misses := after.MemoryHits-before.MemoryHits, after.Misses-before.Misses
		switch {
		case reused && (est.Pushes != 0 || hits != 1 || misses != 0):
			t.Errorf("%s: want the cached index, got %d pushes, %d memory hits, %d misses", what, est.Pushes, hits, misses)
		case !reused && (est.Pushes == 0 || hits != 0 || misses != 1):
			t.Errorf("%s: want a computed index, got %d pushes, %d memory hits, %d misses", what, est.Pushes, hits, misses)
		}
	}

	pair("first query", 0, 1, p, false)
	pair("second query to the same target", 5, 1, p, true)
	// Different rmax is a different index.
	pair("query with different rmax", 0, 1, Params{Alpha: 0.85, RMax: 5e-3, Walks: 100}, false)

	// Capacity 2: inserting a third index evicts the LRU entry
	// (target 1 @ rmax=1e-3, stale since the rmax=5e-3 query refreshed
	// the other).
	pair("third target", 0, 7, p, false)
	if size := e.StoreStats().MemoryEntries; size != 2 {
		t.Errorf("cache size %d, want 2", size)
	}
	pair("query to the evicted index", 0, 1, p, false)
}

func TestEstimatorSingleFlight(t *testing.T) {
	// Concurrent misses for one target must share a single reverse
	// push rather than each running their own.
	g := randomGraph(t, 200, 1200, 51, true)
	p := Params{Alpha: 0.85, RMax: 1e-6, Walks: 50}
	e := NewEstimator(0)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Pair(context.Background(), g, graph.NodeID(i), 99, p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	st := e.StoreStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single flight)", st.Misses)
	}
	if st.MemoryHits != workers-1 {
		t.Errorf("hits = %d, want %d", st.MemoryHits, workers-1)
	}
	if st.MemoryEntries != 1 {
		t.Errorf("cache size = %d, want 1", st.MemoryEntries)
	}
}

func TestGetOrComputeWaiterHonorsOwnContext(t *testing.T) {
	c := NewMemoryStore(4)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrCompute(context.Background(), nil, 1, 0.85, 1e-3, func() (*TargetIndex, error) {
			close(started)
			<-release
			return &TargetIndex{}, nil
		})
	}()
	<-started

	// A waiter with a cancelled context must return promptly instead
	// of blocking on the peer's push.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, nil, 1, 0.85, 1e-3, func() (*TargetIndex, error) {
		t.Error("cancelled waiter ran the computation")
		return nil, nil
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
}

func TestGetOrComputeWaiterRetriesAfterPeerFailure(t *testing.T) {
	c := NewMemoryStore(4)
	release := make(chan struct{})
	started := make(chan struct{})
	peerErr := fmt.Errorf("peer cancelled")
	go func() {
		_, _, _ = c.GetOrCompute(context.Background(), nil, 2, 0.85, 1e-3, func() (*TargetIndex, error) {
			close(started)
			<-release
			return nil, peerErr
		})
	}()
	<-started

	done := make(chan struct{})
	var idx *TargetIndex
	var tier Tier
	var err error
	go func() {
		defer close(done)
		idx, tier, err = c.GetOrCompute(context.Background(), nil, 2, 0.85, 1e-3, func() (*TargetIndex, error) {
			return &TargetIndex{Pushes: 7}, nil
		})
	}()
	close(release) // peer fails; waiter must compute on its own
	<-done
	if err != nil {
		t.Fatalf("waiter failed instead of retrying: %v", err)
	}
	if tier != TierComputed {
		t.Error("retrying waiter reported a cache tier")
	}
	if idx == nil || idx.Pushes != 7 {
		t.Errorf("waiter did not run its own computation: %+v", idx)
	}
}

func TestReversePushDeepQueue(t *testing.T) {
	// A tight rmax forces enough push/re-enqueue churn to exercise the
	// queue's front-compaction path; the accuracy bound must still
	// hold afterwards.
	g := randomGraph(t, 300, 1800, 61, true)
	tgt := graph.NodeID(42)
	const rmax = 1e-12
	idx, err := ReversePush(context.Background(), g, tgt, 0.85, rmax)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Pushes < 20000 {
		t.Fatalf("only %d pushes; graph too easy to stress the queue", idx.Pushes)
	}
	if idx.MaxResidual >= rmax {
		t.Errorf("MaxResidual %g ≥ rmax %g", idx.MaxResidual, rmax)
	}
	// Tolerance is dominated by the dense reference solver's float
	// accumulation, not by rmax, at this precision.
	for _, s := range []graph.NodeID{0, 75, 149} {
		exact := exactForward(g, s, 0.85)[tgt]
		if diff := exact - idx.Estimates.Get(s); diff < -1e-10 || diff >= rmax+1e-10 {
			t.Errorf("source %d: error %g outside [0, rmax)", s, diff)
		}
	}
}

func TestValidation(t *testing.T) {
	g := buildGraph(t, 3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	cases := []struct {
		name string
		run  func() error
	}{
		{"bad alpha", func() error {
			_, err := ReversePush(context.Background(), g, 0, 1.5, 1e-3)
			return err
		}},
		{"bad rmax", func() error {
			_, err := ReversePush(context.Background(), g, 0, 0.85, 0)
			return err
		}},
		{"bad target", func() error {
			_, err := ReversePush(context.Background(), g, 99, 0.85, 1e-3)
			return err
		}},
		{"bad source", func() error {
			_, err := Bidirectional(context.Background(), g, -1, 0, Params{})
			return err
		}},
		{"negative walks", func() error {
			_, err := Bidirectional(context.Background(), g, 0, 0, Params{Walks: -1})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.run() == nil {
				t.Error("expected an error")
			}
		})
	}
}

func TestPairDrainedIndexSkipsWalks(t *testing.T) {
	// Target 0 has no in-edges, so the push drains every residual:
	// walks are skipped and the estimate is exact.
	g := buildGraph(t, 2, [][2]int32{{0, 1}})
	est, err := Bidirectional(context.Background(), g, 0, 0, Params{Alpha: 0.85, RMax: 1e-3, Walks: 10})
	if err != nil {
		t.Fatal(err)
	}
	if est.Walks != 0 {
		t.Errorf("drained index still ran %d walks", est.Walks)
	}
	if diff := math.Abs(est.Value - 0.15); diff > 1e-12 {
		t.Errorf("π(0,0) = %g, want exactly the stop probability 0.15", est.Value)
	}
}
