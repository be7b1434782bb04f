// Benchmarks regenerating every artifact of the paper's evaluation
// section (Tables I-III; Figures 1-2 are the architecture and UI,
// exercised by the platform benches) plus the ablation studies
// `crbench -ablation` runs. Run with:
//
//	go test -bench=. -benchmem
package cyclerank_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	cyclerank "github.com/cyclerank/cyclerank-go"
	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/core"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/experiments"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// graphCache loads each catalog dataset at most once per benchmark
// binary run.
var (
	graphCacheMu sync.Mutex
	graphCache   = map[string]*graph.Graph{}
)

func loadGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	if g, ok := graphCache[name]; ok {
		return g
	}
	cat, err := datasets.BuiltinCatalogSubset(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := cat.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Load()
	if err != nil {
		b.Fatal(err)
	}
	graphCache[name] = g
	return g
}

func mustNode(b *testing.B, g *graph.Graph, label string) graph.NodeID {
	b.Helper()
	id, ok := g.NodeByLabel(label)
	if !ok {
		b.Fatalf("node %q missing", label)
	}
	return id
}

// --- Paper tables (experiments T1-T3) ---

func BenchmarkTableI(b *testing.B) {
	reg := algo.NewBuiltinRegistry()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(context.Background(), reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	reg := algo.NewBuiltinRegistry()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(context.Background(), reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	reg := algo.NewBuiltinRegistry()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(context.Background(), reg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The platform itself (Figures 1-2: architecture + task flow) ---

// BenchmarkPlatformQuerySet measures the full demo pipeline: submit a
// three-task query set through the scheduler, execute on the worker
// pool, persist, and read results back — the end-to-end latency a demo
// user experiences per comparison.
func BenchmarkPlatformQuerySet(b *testing.B) {
	store, err := datastore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	g := loadGraph(b, "enwiki-2013")
	sched, err := task.NewScheduler(task.SchedulerConfig{
		Registry: algo.NewBuiltinRegistry(),
		Store:    store,
		Workers:  2,
		Load:     func(string) (*graph.Graph, error) { return g, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sched.Shutdown(context.Background())
	specs := []task.Spec{
		{Dataset: "enwiki-2013", Algorithm: algo.NameCycleRank, Params: algo.Params{Source: "Freddie Mercury", K: 3}},
		{Dataset: "enwiki-2013", Algorithm: algo.NamePPR, Params: algo.Params{Source: "Freddie Mercury", Alpha: 0.3}},
		{Dataset: "enwiki-2013", Algorithm: algo.NamePageRank},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs, _, err := sched.Submit(specs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sched.WaitQuerySet(context.Background(), qs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation A1: CycleRank vs K ---

func BenchmarkCycleRankK(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Freddie Mercury")
	for k := 2; k <= 6; k++ {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(context.Background(), g, src, core.Params{K: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation A2: pruned vs naive enumeration ---

func BenchmarkCycleRankPrunedVsNaive(b *testing.B) {
	full := loadGraph(b, "er-dense")
	// Induce a 200-node prefix so the naive oracle stays feasible.
	nb := graph.NewBuilder(200)
	full.Edges(func(u, v graph.NodeID) bool {
		if u < 200 && v < 200 {
			nb.AddEdge(u, v)
		}
		return true
	})
	g, err := nb.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Compute(context.Background(), g, 0, core.Params{K: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.NaiveScores(g, 0, core.Params{K: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation A3: PPR engines ---

func BenchmarkPPREngines(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	seeds := []graph.NodeID{mustNode(b, g, "Freddie Mercury")}
	b.Run("power", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pagerank.Personalized(context.Background(), g, pagerank.Params{Alpha: 0.85, Seeds: seeds}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("push", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pagerank.PushPPR(context.Background(), g, pagerank.PushParams{Alpha: 0.15, Epsilon: 1e-7, Seeds: seeds}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("montecarlo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pagerank.MonteCarloPPR(context.Background(), g, pagerank.MCParams{Alpha: 0.85, Walks: 10000, Seeds: seeds, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation A7: bidirectional pair queries ---

// BenchmarkBiPPRPair contrasts the cost of one source→target estimate
// under the bidirectional subsystem with computing the same number
// via a full forward push. Accuracy is matched: bippr at rmax=1e-4
// with 2000 walks estimates π(s,t) at least as tightly as forward
// push at epsilon=1e-8 (see the crbench bippr ablation). "pair" is
// the serving scenario — the reverse-push index is cached and each
// query pays only the walks; "pair-cold" rebuilds the index per
// query; "forward-push" is the status quo it replaces.
func BenchmarkBiPPRPair(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Brian May")
	tgt := mustNode(b, g, "Freddie Mercury")
	params := bippr.Params{Alpha: 0.85, RMax: 1e-4, Walks: 2000, Seed: 1}

	b.Run("pair", func(b *testing.B) {
		est := bippr.NewEstimator(0)
		// Build the target index outside the timed loop: under server
		// traffic the first query per target amortizes it.
		if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pair-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bippr.Bidirectional(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forward-push", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := pagerank.PushPPR(context.Background(), g, pagerank.PushParams{
				Alpha: 0.15, Epsilon: 1e-8, Seeds: []graph.NodeID{src},
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = res.Score(tgt)
		}
	})

	// Serial vs sharded walk phase: a cached pair query is walks-only,
	// so the workers sweep isolates the worker pool's speedup. The
	// estimate is bit-identical at every pool size (test-enforced by
	// TestShardedWalksBitIdentical); only latency changes. 50k walks
	// make the walk phase long enough to measure against pool overhead.
	// Pool sizes are clamped to GOMAXPROCS, so on a machine with fewer
	// cores than a sub-benchmark's label the rows run an effectively
	// smaller (possibly serial) pool and read as ~1x.
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("walk-phase/workers=%d", workers), func(b *testing.B) {
			est := bippr.NewEstimator(0)
			p := bippr.Params{Alpha: 0.85, RMax: 1e-4, Walks: 50000, Seed: 1, Workers: workers}
			if _, err := est.Pair(context.Background(), g, src, tgt, p); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.Pair(context.Background(), g, src, tgt, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBiPPRWalkReuse measures the walk-endpoint cache for a
// warm-source pair query against a *new* target (its index is warm
// too, so both rows isolate the walk term): "fresh-walks" simulates
// the walks per query, "reused-endpoints" re-weights the source's
// recorded endpoints. Estimates are bit-identical (test-enforced by
// TestEndpointReuseMatchesFreshWalks); only the walk simulation is
// skipped.
func BenchmarkBiPPRWalkReuse(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Brian May")
	warm := mustNode(b, g, "Freddie Mercury")
	tgt := mustNode(b, g, "Queen (band)")
	fresh := bippr.Params{Alpha: 0.85, RMax: 1e-4, Walks: 50000, Seed: 1}
	reuse := fresh
	reuse.ReuseEndpoints = true

	est := bippr.NewEstimator(0)
	// Warm both target indexes and the source's endpoint recording.
	if _, err := est.Pair(context.Background(), g, src, warm, reuse); err != nil {
		b.Fatal(err)
	}
	if _, err := est.Pair(context.Background(), g, src, tgt, fresh); err != nil {
		b.Fatal(err)
	}

	b.Run("fresh-walks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := est.Pair(context.Background(), g, src, tgt, fresh); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused-endpoints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := est.Pair(context.Background(), g, src, tgt, reuse); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBiPPRPersist measures the two warm tiers of the persistent
// index store for a pair query: "warm-disk" is the restarted-server
// scenario (a fresh estimator finds the artifact in the datastore and
// deserializes instead of re-pushing — plus the walk phase),
// "warm-memory" the steady-state LRU hit. Compare with
// BenchmarkBiPPRPair/pair-cold, which is what a restart used to cost
// per target before indexes persisted.
func BenchmarkBiPPRPersist(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Brian May")
	tgt := mustNode(b, g, "Freddie Mercury")
	params := bippr.Params{Alpha: 0.85, RMax: 1e-4, Walks: 2000, Seed: 1}
	store, err := datastore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	// Seed the artifact (the second touch persists it); every
	// sub-benchmark below is warm.
	seed := bippr.NewEstimatorWithCaches(bippr.NewTieredStore(0, store), nil)
	for touch := 0; touch < 2; touch++ {
		if _, err := seed.Pair(context.Background(), g, src, tgt, params); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("warm-disk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			est := bippr.NewEstimatorWithCaches(bippr.NewTieredStore(0, store), nil)
			if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-memory", func(b *testing.B) {
		est := bippr.NewEstimatorWithCaches(bippr.NewTieredStore(0, store), nil)
		if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndpointPersist measures what persisted walk-endpoint
// recordings buy a restarted server for a warm-source pair query
// (both the target index and the source's recording already on disk):
// "re-walk" is the pre-persistence restart — a fresh estimator whose
// endpoint cache is memory-only re-simulates the walks (the index
// still loads from disk) — while "warm-disk" deserializes the
// recording instead (zero walk simulation; the restarted-server path)
// and "warm-memory" is the steady-state LRU hit. Estimates are
// bit-identical on every row (test-enforced by the store-reopen leg
// of TestEndpointReuseMatchesFreshWalks).
func BenchmarkEndpointPersist(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Brian May")
	tgt := mustNode(b, g, "Freddie Mercury")
	params := bippr.Params{Alpha: 0.85, RMax: 1e-4, Walks: 50000, Seed: 1, ReuseEndpoints: true}
	store, err := datastore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	tiered := func() *bippr.Estimator {
		return bippr.NewEstimatorWithCaches(
			bippr.NewTieredStore(0, store), bippr.NewTieredEndpointCache(0, store))
	}
	// Seed both artifacts (the second touch persists them); every
	// sub-benchmark below is warm on disk.
	seed := tiered()
	for touch := 0; touch < 2; touch++ {
		if _, err := seed.Pair(context.Background(), g, src, tgt, params); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("re-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est := bippr.NewEstimatorWithCaches(bippr.NewTieredStore(0, store), bippr.NewEndpointCache(0))
			if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-disk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tiered().Pair(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-memory", func(b *testing.B) {
		est := tiered()
		if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := est.Pair(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTargetIndexStorage contrasts the memory the two index
// representations pin: dense allocates O(n) arrays regardless of how
// far the push reaches, sparse allocates O(touched). The ring graph
// makes the gap extreme — a reverse push at rmax=1e-4 touches ~57
// nodes of 200k — which is exactly the regime of an LRU cache over a
// multi-million-node graph. Read the B/op column.
func BenchmarkTargetIndexStorage(b *testing.B) {
	const n = 200_000
	nb := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		nb.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n))
	}
	ring, err := nb.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		storage bippr.Storage
	}{
		{"dense", bippr.StorageDense},
		{"sparse", bippr.StorageSparse},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bippr.ReversePushStored(context.Background(), ring, 0, 0.85, 1e-4, tc.storage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPPRTarget measures the target-ranking workload: cold
// reverse pushes at decreasing rmax, and the cached path a busy
// server hits.
func BenchmarkPPRTarget(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	tgt := mustNode(b, g, "Freddie Mercury")
	for _, rmax := range []float64{1e-4, 1e-6} {
		b.Run(fmt.Sprintf("reverse-push/rmax=%.0e", rmax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bippr.ReversePush(context.Background(), g, tgt, 0.85, rmax); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("cached", func(b *testing.B) {
		est := bippr.NewEstimator(0)
		p := bippr.Params{Alpha: 0.85, RMax: 1e-5}
		if _, err := est.TargetRank(context.Background(), g, tgt, p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := est.TargetRank(context.Background(), g, tgt, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation A4: scoring functions ---

func BenchmarkCycleRankScoring(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Freddie Mercury")
	for _, name := range core.ScoringNames() {
		fn, err := core.ScoringByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(context.Background(), g, src, core.Params{K: 3, Scoring: fn}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation A5: all seven algorithms vs snapshot size ---

func BenchmarkAlgorithmsScale(b *testing.B) {
	reg := algo.NewBuiltinRegistry()
	algos := []struct {
		name string
		p    algo.Params
	}{
		{algo.NameCycleRank, algo.Params{Source: "Freddie Mercury", K: 3}},
		{algo.NamePageRank, algo.Params{Alpha: 0.85}},
		{algo.NamePPR, algo.Params{Source: "Freddie Mercury", Alpha: 0.85}},
		{algo.NameCheiRank, algo.Params{Alpha: 0.85}},
		{algo.NamePCheiRank, algo.Params{Source: "Freddie Mercury", Alpha: 0.85}},
		{algo.Name2DRank, algo.Params{Alpha: 0.85}},
		{algo.NameP2DRank, algo.Params{Source: "Freddie Mercury", Alpha: 0.85}},
	}
	for _, year := range []int{2003, 2018} {
		g := loadGraph(b, fmt.Sprintf("enwiki-%d", year))
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/enwiki-%d", a.name, year), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					reg.ForgetGraph(g) // the algorithm's cost, not a memo hit's
					if _, err := algo.Run(context.Background(), reg, a.name, g, a.p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablation A6: rank agreement ---

func BenchmarkAgreementMetrics(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Freddie Mercury")
	cr, err := core.Compute(context.Background(), g, src, core.Params{K: 3})
	if err != nil {
		b.Fatal(err)
	}
	ppr, err := pagerank.Personalized(context.Background(), g, pagerank.Params{Alpha: 0.85, Seeds: []graph.NodeID{src}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cyclerank.CompareAt(cr, ppr, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultTop is the layer reading behind the benchmark's
// ranking.top_ms: the top 50 of a 50k-node PageRank vector, what every
// task pays once to build its result document.
func BenchmarkResultTop(b *testing.B) {
	g := loadGraph(b, "ba-large")
	res, err := pagerank.PageRank(context.Background(), g, pagerank.Params{Alpha: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := res.Top(50); len(top) != 50 {
			b.Fatalf("top has %d entries", len(top))
		}
	}
}

// --- Substrate microbenches ---

func BenchmarkGraphBuild(b *testing.B) {
	src := loadGraph(b, "enwiki-2018")
	var edges []graph.Edge
	src.Edges(func(u, v graph.NodeID) bool {
		edges = append(edges, graph.Edge{From: u, To: v})
		return true
	})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.FromEdges(src.NumNodes(), edges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSBounded(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Freddie Mercury")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.BFSFrom(g, src, 3)
	}
}

func BenchmarkSCC(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.StronglyConnectedComponents(g)
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	for _, name := range []string{"enwiki-2018", "amazon", "twitter-cop27"} {
		b.Run(name, func(b *testing.B) {
			cat, err := datasets.BuiltinCatalogSubset(name)
			if err != nil {
				b.Fatal(err)
			}
			d, err := cat.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := d.Load(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead quantifies what the observability layer costs
// on the hottest uncached path: a full bidirectional query (reverse
// push + walk pass) with package metrics on (the default) versus off.
// Instrumentation sits only at pass boundaries — a handful of atomic
// adds and one histogram observe per pass — so the two rows must stay
// within noise of each other (the PR's budget is 5%). Neither row
// opens a trace: span cost is borne only by requests that ask for one.
func BenchmarkObsOverhead(b *testing.B) {
	g := loadGraph(b, "enwiki-2018")
	src := mustNode(b, g, "Brian May")
	tgt := mustNode(b, g, "Freddie Mercury")
	params := bippr.Params{Alpha: 0.85, RMax: 1e-4, Walks: 2000, Seed: 1}

	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bippr.Bidirectional(context.Background(), g, src, tgt, params); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("instrumented", func(b *testing.B) {
		bippr.SetMetricsEnabled(true)
		run(b)
	})
	b.Run("disabled", func(b *testing.B) {
		bippr.SetMetricsEnabled(false)
		defer bippr.SetMetricsEnabled(true)
		run(b)
	})
}

// BenchmarkAdmissionOverhead prices the fast-reject path. This is the
// whole point of admission control — rejecting must cost microseconds
// while serving costs milliseconds — so the numbers here are the
// per-request overhead an overloaded server pays.
//
//   - static: a blocker holds the tier's only interactive slot, so
//     every benchmarked Submit is shed on occupancy ("slots") before
//     any graph load or task registration.
func BenchmarkAdmissionOverhead(b *testing.B) {
	g, err := datasets.CompleteDigraph(10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("static", func(b *testing.B) {
		gate := make(chan struct{})
		reg := algo.NewRegistry()
		reg.Register(algo.Func{
			AlgoName: "block",
			AlgoDesc: "holds the interactive slot for the benchmark",
			RunFunc: func(ctx context.Context, gr *graph.Graph, p algo.Params) (*ranking.Result, error) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
				return ranking.NewResult("block", gr, make([]float64, gr.NumNodes()))
			},
		})
		store, err := datastore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		s, err := task.NewScheduler(task.SchedulerConfig{
			Registry:  reg,
			Store:     store,
			Workers:   1,
			Load:      func(string) (*graph.Graph, error) { return g, nil },
			Admission: task.AdmissionConfig{InteractiveSlots: 1, RetryAfter: time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			close(gate)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		// The blocker owns the slot from the moment Submit returns.
		if _, _, err := s.Submit([]task.Spec{{Dataset: "d", Algorithm: "block"}}); err != nil {
			b.Fatal(err)
		}
		spec := task.Spec{Dataset: "d", Algorithm: "bippr-pair",
			Params: algo.Params{Source: "0", Target: "1", Walks: 1000}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, err := s.Submit([]task.Spec{spec})
			var shed *task.ShedError
			if !errors.As(err, &shed) || shed.Reason != "slots" {
				b.Fatalf("submit %d not shed on slots: %v", i, err)
			}
		}
	})
}
