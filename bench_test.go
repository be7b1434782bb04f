// Layer kernels: the microbenchmarks read as layer figures inside the
// repository benchmark's end-to-end budget (`go run ./benchmark`).
// Each reads one layer:
//
//   - BenchmarkBiPPRPair: bippr.pair, a cached-index pair query;
//   - BenchmarkPPRTarget: bippr.push, the reverse push behind ppr-target;
//   - BenchmarkTargetIndexStorage: bytes pinned per target index;
//   - BenchmarkResultTop: ranking.top, the top-k every result pays;
//   - BenchmarkCombine2D: pagerank.p2drank past its legs, the 2DRank
//     square sweep;
//   - BenchmarkPPREngines: the power, forward-push and Monte-Carlo
//     PPR kernels.
//   - BenchmarkUpload: server.upload, what POST /api/datasets/{name}
//     pays before its 201 — parse and build, the dataset snapshot's
//     durable save, and the stats.
//
// The paper's tables are pinned by the golden tests of
// internal/experiments, not timed here. Run with (CI runs every kernel
// once with -benchtime 1x -cpu 1,4):
//
//	go test -run NONE -bench . -benchmem .
package cyclerank_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
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

// BenchmarkCombine2D is the layer reading behind the benchmark's
// pagerank.p2drank_ms once its legs are in: the two ranks and the
// square sweep over ba-medium's ppr and pcheirank vectors from node 42,
// the tail of the seven-algorithm comparison. Its allocs/op is a
// constant, whatever the graph's size.
func BenchmarkCombine2D(b *testing.B) {
	g := loadGraph(b, "ba-medium")
	p := pagerank.Params{Alpha: 0.85, Seeds: []graph.NodeID{mustNode(b, g, "42")}}
	pr, err := pagerank.Personalized(context.Background(), g, p)
	if err != nil {
		b.Fatal(err)
	}
	cr, err := pagerank.PersonalizedCheiRank(context.Background(), g, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerank.Combine2D(g, pr, cr, "p2drank"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPREngines times the three single-source PPR kernels from
// Freddie Mercury on enwiki-2018: exact power iteration, forward push
// and Monte-Carlo walks (the crbench ppr-engines ablation reports
// their accuracy).
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

// BenchmarkUpload is the layer reading behind the benchmark's
// server.upload_ms: one upload of the upload-compare shape — a CSV edge
// list of 5,000 labeled nodes, each with one reciprocated edge and six
// more random out-edges (40,000 lines) — parsed and built, saved
// durably as a dataset snapshot, and summarized by ComputeStats, the
// work the server does before it answers 201.
func BenchmarkUpload(b *testing.B) {
	const nodes, out = 5000, 8
	rng := rand.New(rand.NewSource(1))
	var body bytes.Buffer
	edge := func(from, to int) {
		body.WriteString("n" + strconv.Itoa(from) + ",n" + strconv.Itoa(to) + "\n")
	}
	for u := 0; u < nodes; u++ {
		v := (u + 1 + rng.Intn(nodes-1)) % nodes
		edge(u, v)
		edge(v, u)
		for k := 2; k < out; k++ {
			edge(u, (u+1+rng.Intn(nodes-1))%nodes)
		}
	}
	store, err := datastore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := formats.Read(bytes.NewReader(body.Bytes()), formats.FormatEdgeList)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.SaveDataset("upload", g); err != nil {
			b.Fatal(err)
		}
		if s := graph.ComputeStats(g); s.Nodes != nodes {
			b.Fatalf("stats report %d nodes", s.Nodes)
		}
	}
}
