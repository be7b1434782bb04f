package algo

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/artifact"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// memoGraph is an unlabeled preferential-attachment graph (decimal
// ids are the labels), big enough that the engines run tens of
// iterations and differ from one another.
func memoGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := datasets.PreferentialAttachment(400, 3, 0.25, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// memoStats reads the counters of the one memo a built-in registry
// has.
func memoStats(t *testing.T, r *Registry) artifact.Stats {
	t.Helper()
	memos := r.memos()
	if len(memos) != 1 {
		t.Fatalf("registry has %d score-vector memos, want 1", len(memos))
	}
	return memos[0].cache.Stats()
}

// pageRankFamily maps the six engines to the un-memoized package
// functions the registry path must reproduce.
var pageRankFamily = []struct {
	name   string
	source bool
	direct func(context.Context, *graph.Graph, pagerank.Params) (*ranking.Result, error)
}{
	{NamePageRank, false, pagerank.PageRank},
	{NamePPR, true, pagerank.Personalized},
	{NameCheiRank, false, pagerank.CheiRank},
	{NamePCheiRank, true, pagerank.PersonalizedCheiRank},
	{Name2DRank, false, pagerank.TwoDRank},
	{NameP2DRank, true, pagerank.PersonalizedTwoDRank},
}

// sameVector reports an error unless got carries want's answer bit
// for bit. (Errorf, not Fatalf: it is also called off the test's
// goroutine.)
func sameVector(t *testing.T, got, want *ranking.Result) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Iterations != want.Iterations ||
		math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Errorf("header (%s, %d iterations, residual %v), want (%s, %d, %v)",
			got.Algorithm, got.Iterations, got.Residual, want.Algorithm, want.Iterations, want.Residual)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Errorf("%s: %d scores, want %d", want.Algorithm, len(got.Scores), len(want.Scores))
		return
	}
	for v := range want.Scores {
		if math.Float64bits(got.Scores[v]) != math.Float64bits(want.Scores[v]) {
			t.Errorf("%s: score[%d] = %v, want %v", want.Algorithm, v, got.Scores[v], want.Scores[v])
			return
		}
	}
}

// TestMemoizedEnginesMatchDirectCalls: through the registry — cold,
// then from the memo — every engine returns exactly what the package
// function returns for the same parameters.
func TestMemoizedEnginesMatchDirectCalls(t *testing.T) {
	ctx := context.Background()
	g := memoGraph(t, 7)
	const source = "17"
	seeds := []graph.NodeID{17}
	r := NewBuiltinRegistry()
	for _, e := range pageRankFamily {
		for _, alpha := range []float64{0.5, 0.85, 0.95} {
			for _, c := range []struct {
				tol     float64
				maxIter int
			}{{0, 0}, {pagerank.DefaultTol, pagerank.DefaultMaxIter}, {1e-6, 0}, {0, 5}} {
				p := Params{Alpha: alpha, Tol: c.tol, MaxIter: c.maxIter}
				direct := pagerank.Params{Alpha: alpha, Tol: c.tol, MaxIter: c.maxIter}
				if e.source {
					p.Source, direct.Seeds = source, seeds
				}
				want, err := e.direct(ctx, g, direct)
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"first", "repeat"} {
					got, err := Run(ctx, r, e.name, g, p)
					if err != nil {
						t.Fatalf("%s %+v: %v", e.name, p, err)
					}
					if pass == "repeat" && !got.Cached {
						t.Errorf("%s %+v: repeat run not marked cached", e.name, p)
					}
					sameVector(t, got, want)
				}
			}
		}
	}
}

// TestMemoKeyCanonicalisesDefaults: `{}` and the spelled-out defaults
// are one entry; a different alpha, tolerance, iteration cap or source
// is another.
func TestMemoKeyCanonicalisesDefaults(t *testing.T) {
	ctx := context.Background()
	g := memoGraph(t, 7)
	r := NewBuiltinRegistry()
	run := func(p Params) *ranking.Result {
		t.Helper()
		res, err := Run(ctx, r, NamePPR, g, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(Params{Source: "3"}).Cached {
		t.Fatal("cold run marked cached")
	}
	if !run(Params{Source: "3", Alpha: pagerank.DefaultAlpha, Tol: pagerank.DefaultTol, MaxIter: pagerank.DefaultMaxIter}).Cached {
		t.Error("spelled-out defaults missed the entry `{}` made")
	}
	if s := memoStats(t, r); s.Misses != 1 || s.MemoryEntries != 1 {
		t.Fatalf("stats %+v, want one miss and one entry", s)
	}
	for _, p := range []Params{
		{Source: "3", Alpha: 0.5},
		{Source: "3", Tol: 1e-6},
		{Source: "3", MaxIter: 7},
		{Source: "4"},
	} {
		if run(p).Cached {
			t.Errorf("%+v served from the default entry", p)
		}
	}
	if s := memoStats(t, r); s.Misses != 5 {
		t.Fatalf("misses = %d, want 5", s.Misses)
	}
}

// TestMemoNeverStoresErrors: a request the engines reject, or whose
// source does not resolve, fails every time it is made and leaves
// nothing behind.
func TestMemoNeverStoresErrors(t *testing.T) {
	ctx := context.Background()
	g := memoGraph(t, 7)
	r := NewBuiltinRegistry()
	for _, e := range pageRankFamily {
		bad := []Params{{Alpha: 1.5}, {Tol: -1}, {MaxIter: -1}}
		for i := range bad {
			if e.source {
				bad[i].Source = "17"
			}
		}
		if e.source {
			bad = append(bad, Params{Source: "no such node"})
		}
		for _, p := range bad {
			for pass := 0; pass < 2; pass++ {
				if _, err := Run(ctx, r, e.name, g, p); err == nil {
					t.Errorf("%s %+v: no error", e.name, p)
				}
			}
		}
	}
	if s := memoStats(t, r); s.Misses != 0 || s.MemoryEntries != 0 || s.MemoryHits != 0 {
		t.Fatalf("failed requests left %+v behind", s)
	}
}

// TestMemoIsPerRegistryAndPerGraph: two registries share nothing, a
// vector belongs to the graph it was computed on, and ForgetGraph
// retires exactly that graph's vectors.
func TestMemoIsPerRegistryAndPerGraph(t *testing.T) {
	ctx := context.Background()
	g1, g2 := memoGraph(t, 7), memoGraph(t, 8)
	r1, r2 := NewBuiltinRegistry(), NewBuiltinRegistry()
	cached := func(r *Registry, g *graph.Graph) bool {
		t.Helper()
		res, err := Run(ctx, r, Name2DRank, g, Params{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cached
	}
	if cached(r1, g1) || cached(r2, g1) {
		t.Fatal("a registry saw another registry's vectors")
	}
	if cached(r1, g2) {
		t.Fatal("a vector of one graph answered for another")
	}
	if !cached(r1, g1) || !cached(r1, g2) {
		t.Fatal("memoized vectors not reused")
	}
	r1.ForgetGraph(g1)
	if s := memoStats(t, r1); s.MemoryEntries != 3 || s.Weight != 3*8*int64(g2.NumNodes()) {
		t.Fatalf("after ForgetGraph: %+v, want the three vectors of the other graph", s)
	}
	if cached(r1, g1) {
		t.Error("forgotten graph still served from the memo")
	}
	if !cached(r1, g2) {
		t.Error("ForgetGraph dropped another graph's vectors")
	}
	if len(r1.MetricsRegistries()) != 1 || len(NewRegistry().MetricsRegistries()) != 0 {
		t.Error("MetricsRegistries: want one per memo, none for a registry without built-ins")
	}
}

// TestConcurrentQuerySetsComputeEachVectorOnce: the seven-algorithm
// comparison fired from eight goroutines at once pays for each of its
// six distinct vectors exactly once, and everyone gets the right
// answer. Run under -race.
func TestConcurrentQuerySetsComputeEachVectorOnce(t *testing.T) {
	ctx := context.Background()
	g := memoGraph(t, 7)
	seeds := []graph.NodeID{17}
	want := map[string]*ranking.Result{}
	for _, e := range pageRankFamily {
		p := pagerank.Params{Alpha: pagerank.DefaultAlpha}
		if e.source {
			p.Seeds = seeds
		}
		res, err := e.direct(ctx, g, p)
		if err != nil {
			t.Fatal(err)
		}
		want[e.name] = res
	}
	r := NewBuiltinRegistry()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			names := []string{NameCycleRank, NamePageRank, NamePPR, NameCheiRank, NamePCheiRank, Name2DRank, NameP2DRank}
			for i := range names {
				name := names[(i+w)%len(names)] // every goroutine starts elsewhere in the set
				res, err := Run(ctx, r, name, g, Params{Source: "17"})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if direct, ok := want[name]; ok {
					sameVector(t, res, direct)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if s := memoStats(t, r); s.Misses != 6 || s.MemoryEntries != 6 {
		t.Fatalf("stats %+v, want six misses and six entries", s)
	}
}

// hookCtx is a live context whose Done and Err are the test's.
type hookCtx struct {
	context.Context
	done func() <-chan struct{}
	err  func() error
}

func (c hookCtx) Done() <-chan struct{} { return c.done() }
func (c hookCtx) Err() error            { return c.err() }

// TestRiderRecomputesWhenItsPeerIsInterrupted: a task waiting on a
// sibling's in-flight vector does not inherit the sibling's
// cancellation or deadline — it computes the vector under its own
// context. The two contexts order the steps without a clock: the
// peer's first Done (the power iteration's first check) holds the peer
// inside its computation until the rider's first Done (the wait on
// the in-flight call) shows the rider is riding; only then is the
// peer interrupted.
func TestRiderRecomputesWhenItsPeerIsInterrupted(t *testing.T) {
	g := memoGraph(t, 7)
	want, err := pagerank.Personalized(context.Background(), g, pagerank.Params{Alpha: pagerank.DefaultAlpha, Seeds: []graph.NodeID{17}})
	if err != nil {
		t.Fatal(err)
	}
	for _, interruption := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(interruption.Error(), func(t *testing.T) {
			r := NewBuiltinRegistry()
			peerComputing, riderRiding := make(chan struct{}), make(chan struct{})
			var peerOnce, riderOnce sync.Once
			closed := make(chan struct{})
			close(closed)
			peerCtx := hookCtx{
				Context: context.Background(),
				done: func() <-chan struct{} {
					peerOnce.Do(func() { close(peerComputing) })
					<-riderRiding
					return closed
				},
				err: func() error { return interruption },
			}
			riderCtx := hookCtx{
				Context: context.Background(),
				done: func() <-chan struct{} {
					riderOnce.Do(func() { close(riderRiding) })
					return nil // never done
				},
				err: func() error { return nil },
			}
			peerErr := make(chan error, 1)
			go func() {
				_, err := Run(peerCtx, r, NamePPR, g, Params{Source: "17"})
				peerErr <- err
			}()
			<-peerComputing
			got, err := Run(riderCtx, r, NamePPR, g, Params{Source: "17"})
			if err != nil {
				t.Fatalf("rider inherited its peer's fate: %v", err)
			}
			if got.Cached {
				t.Error("rider computed the vector itself, yet it is marked cached")
			}
			sameVector(t, got, want)
			if err := <-peerErr; !errors.Is(err, interruption) {
				t.Fatalf("peer error = %v, want %v", err, interruption)
			}
			if s := memoStats(t, r); s.Misses != 1 || s.MemoryHits != 0 || s.MemoryEntries != 1 {
				t.Fatalf("stats %+v, want the rider's one computation", s)
			}
		})
	}
}
