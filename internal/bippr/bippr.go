// Package bippr implements bidirectional Personalized PageRank
// estimation (Lofgren, Banerjee, Goel: "Personalized PageRank
// Estimation and Search: A Bidirectional Approach", WSDM 2016).
//
// Every engine in internal/pagerank answers single-source queries by
// touching a large fraction of the graph. This package answers the
// two complementary questions sublinearly:
//
//   - target queries — "how relevant is every node TO t?" — via
//     ReversePush, a local backward push over the graph's in-CSR that
//     estimates the whole column π(·,t) with additive error below a
//     residual threshold rmax;
//
//   - pair queries — "how relevant is t to s?" — via Bidirectional,
//     which combines a reverse-push target index with
//     deterministically seeded forward random walks from s:
//
//     π(s,t) ≈ p_t(s) + (1/W)·Σ_walks r_t(endpoint)
//
// balancing push cost against walk count through rmax.
//
// The random-surfer convention matches the power-iteration engine:
// Alpha is the damping (continue) probability; the walk stops at the
// current node with probability 1−Alpha. A walk entering a dangling
// node is absorbed there: unlike pagerank.Personalized, mass is not
// returned to the seed, because the reverse formulation must stay
// independent of the (unknown) source. On dangling-free graphs the
// two conventions coincide exactly.
//
// An Estimator wraps both layers behind an IndexStore, so that
// repeated queries against the same (graph, target, alpha, rmax) —
// the common pattern under server traffic — pay the reverse push once
// and only the walks per query. Two stores exist: the in-memory
// single-flight LRU (MemoryStore), and the two-tier TieredStore that
// additionally persists each index as a versioned, checksummed
// artifact through a DiskTier (the platform datastore) — so a
// restarted server finds its warm reverse-push cache on disk and pays
// deserialization instead of recomputation. Corrupt, truncated or
// version-skewed artifacts are treated as misses and recomputed.
//
// Both layers scale past the single-machine defaults: indexes store
// their estimate/residual vectors sparsely on large graphs (memory
// proportional to the nodes the push touched, see Storage), walks can
// be sharded across a GOMAXPROCS-bounded worker pool with bit-identical
// results (Params.Workers), and the walk count can be derived from a
// requested additive error instead of a flat default (Params.Eps,
// WalksForError).
//
// The walk side has its own cross-request cache: walk endpoints depend
// only on the source (the target enters purely through the residual
// weights), so an EndpointCache records one walk pass per (graph
// fingerprint, source, seed, walk parameters) and later queries
// against new targets re-weight the recording instead of re-walking —
// bit-identically, because fresh and recorded chunks fold through the
// same sorted-count summation (Params.ReuseEndpoints).
package bippr

import (
	"context"
	"fmt"
	"math"

	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// Default parameter values applied when Params fields are zero.
const (
	// DefaultAlpha is the damping (continue) probability.
	DefaultAlpha = 0.85
	// DefaultRMax is the reverse-push residual threshold. Estimates
	// carry additive error strictly below DefaultRMax.
	DefaultRMax = 1e-4
	// DefaultWalks is the forward walk count of a pair query.
	DefaultWalks = 10000
	// DefaultSeed seeds the walk RNG, making pair estimates
	// reproducible across runs.
	DefaultSeed = 1
	// DefaultMaxSteps truncates a single walk; at Alpha=0.85 the
	// probability of a walk surviving 100 steps is below 9e-8.
	DefaultMaxSteps = 100
	// DefaultCacheSize is the Estimator's target-index LRU capacity.
	DefaultCacheSize = 32
	// DefaultEndpointCacheSize is the Estimator's walk-endpoint LRU
	// capacity: recorded walk passes, each O(distinct endpoints).
	DefaultEndpointCacheSize = 64
	// DefaultWorkers is the walk worker-pool size. Serial by default:
	// a busy server already runs one task per executor goroutine, so
	// walk-level parallelism is an explicit opt-in (Params.Workers).
	DefaultWorkers = 1
	// DefaultFailureProb is the failure probability behind the
	// adaptive walk count (see WalksForError).
	DefaultFailureProb = 0.01
	// MaxAdaptiveWalks caps the walk count WalksForError may request,
	// bounding the cost of an over-tight Eps.
	MaxAdaptiveWalks = 1 << 23
	// MaxWalks is the largest walk count a single query accepts. The
	// chunked estimator keeps one partial sum per 128 walks, so the
	// cap also bounds that bookkeeping (8 MiB at the cap) and keeps
	// absurd API requests from exhausting memory — they are rejected
	// up front instead.
	MaxWalks = 1 << 27
)

// WalksForError returns the walk count that bounds the Monte-Carlo
// correction term's additive error by eps with probability
// 1−DefaultFailureProb. Each walk's sample is a residual, bounded by
// rmax, so Hoeffding gives
//
//	W = ⌈ rmax² · ln(2/p_fail) / (2·eps²) ⌉
//
// — the rmax/walk-count balance point of Lofgren's bidirectional
// analysis (BiPPR, WSDM 2016 §3): halving rmax quarters the walks the
// same eps needs, trading push work against walk work. The result is
// clamped to [1, MaxAdaptiveWalks].
func WalksForError(rmax, eps float64) int {
	if rmax <= 0 || eps <= 0 {
		return DefaultWalks
	}
	ratio := rmax / eps
	w := math.Ceil(ratio * ratio * math.Log(2/DefaultFailureProb) / 2)
	if w < 1 {
		return 1
	}
	if w > MaxAdaptiveWalks {
		return MaxAdaptiveWalks
	}
	return int(w)
}

// AlgorithmTarget and AlgorithmPair are the ranking.Result algorithm
// names produced by this package.
const (
	AlgorithmTarget = "ppr-target"
	AlgorithmPair   = "bippr-pair"
)

// Params configures both layers of the bidirectional estimator.
type Params struct {
	// Alpha is the damping (continue) probability, in (0,1); default
	// 0.85, matching the power-iteration engine.
	Alpha float64
	// RMax is the reverse-push residual threshold; every node's final
	// residual is strictly below RMax, so target estimates carry
	// additive error below RMax. Smaller is more accurate and pushes
	// longer. Default 1e-4.
	RMax float64
	// Walks is the forward walk count of a pair query (unused by pure
	// target queries). Default 10000; superseded by Eps when set.
	Walks int
	// Eps is the requested additive error of the walk correction term.
	// When positive, the walk count is derived adaptively from RMax
	// and Eps (see WalksForError) instead of using Walks.
	Eps float64
	// Seed seeds the walk RNG deterministically per source. Default 1.
	Seed int64
	// MaxSteps truncates a single walk. Default 100.
	MaxSteps int
	// Workers sizes the walk worker pool of a pair query. Walks are
	// sharded across the pool in deterministically seeded chunks, so
	// estimates are bit-identical for every value. Bounded by
	// GOMAXPROCS; default 1 (serial).
	Workers int
	// ReuseEndpoints opts a pair query into the walk-endpoint cache:
	// the first query from a source records its walk endpoints, and
	// later queries from the same (source, alpha, seed, maxSteps,
	// walks) — typically against *different targets* — re-weight the
	// recording instead of re-walking. Estimates are bit-identical
	// either way; reuse only changes latency and memory. Default off.
	ReuseEndpoints bool
}

// WithDefaults returns p with every zero field replaced by the
// package default — the exact parameter set estimator entry points
// run with. Serving layers that talk to the caches directly (the
// server's startup pre-warm, which records walk passes the same way
// a later query will look them up) use it so their cache keys match
// query-time keys bit for bit.
func (p Params) WithDefaults() Params { return p.withDefaults() }

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.Alpha == 0 {
		p.Alpha = DefaultAlpha
	}
	if p.RMax == 0 {
		p.RMax = DefaultRMax
	}
	if p.Eps > 0 {
		// Adaptive budget: eps decides the walk count, replacing the
		// flat default (and any explicit Walks).
		p.Walks = WalksForError(p.RMax, p.Eps)
	} else if p.Walks == 0 {
		p.Walks = DefaultWalks
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	if p.MaxSteps == 0 {
		p.MaxSteps = DefaultMaxSteps
	}
	if p.Workers == 0 {
		p.Workers = DefaultWorkers
	}
	return p
}

// validate checks the filled parameters.
func (p Params) validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("bippr: alpha=%v outside (0,1)", p.Alpha)
	}
	if p.RMax <= 0 {
		return fmt.Errorf("bippr: rmax=%v must be positive", p.RMax)
	}
	if p.Walks < 0 {
		return fmt.Errorf("bippr: walks=%d must not be negative", p.Walks)
	}
	if p.Walks > MaxWalks {
		return fmt.Errorf("bippr: walks=%d exceeds the cap %d", p.Walks, MaxWalks)
	}
	if p.Eps < 0 {
		return fmt.Errorf("bippr: eps=%v must not be negative", p.Eps)
	}
	if p.MaxSteps < 0 {
		return fmt.Errorf("bippr: max steps=%d must not be negative", p.MaxSteps)
	}
	if p.Workers < 0 {
		return fmt.Errorf("bippr: workers=%d must not be negative", p.Workers)
	}
	return nil
}

// Estimate is the outcome of one bidirectional pair query.
type Estimate struct {
	// Value estimates π(source, target).
	Value float64
	// Pushes is the reverse-push operation count behind the target
	// index (0 when the index came from the cache).
	Pushes int64
	// Walks is the number of forward walks the estimate is based on.
	Walks int
}

// Estimator answers target and pair queries, amortizing reverse
// pushes across queries through an IndexStore — by default the
// in-memory LRU, optionally the two-tier persistent store that also
// survives restarts. It is safe for concurrent use.
type Estimator struct {
	store     IndexStore
	endpoints *EndpointCache
}

// NewEstimator returns an Estimator over a memory-only IndexStore
// holding up to capacity target indexes (capacity <= 0 selects
// DefaultCacheSize), with a default-sized walk-endpoint cache.
func NewEstimator(capacity int) *Estimator {
	return &Estimator{
		store:     NewMemoryStore(capacity),
		endpoints: NewEndpointCache(DefaultEndpointCacheSize),
	}
}

// NewEstimatorWithCaches returns an Estimator over an explicit
// IndexStore and EndpointCache, so serving layers can surface both
// caches' stats. Nil selects the defaults for either.
func NewEstimatorWithCaches(store IndexStore, endpoints *EndpointCache) *Estimator {
	if store == nil {
		store = NewMemoryStore(0)
	}
	if endpoints == nil {
		endpoints = NewEndpointCache(DefaultEndpointCacheSize)
	}
	return &Estimator{store: store, endpoints: endpoints}
}

// StoreStats returns a snapshot of the underlying IndexStore's
// counters, split by tier.
func (e *Estimator) StoreStats() StoreStats {
	return e.store.Stats()
}

// EndpointStats returns a snapshot of the walk-endpoint cache's
// counters.
func (e *Estimator) EndpointStats() EndpointStats {
	return e.endpoints.Stats()
}

// Index returns the reverse-push target index for (g, target, alpha,
// rmax), computing it on miss. The returned index is shared; callers
// must not mutate it.
func (e *Estimator) Index(ctx context.Context, g *graph.Graph, target graph.NodeID, p Params) (*TargetIndex, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	idx, _, err := e.index(ctx, g, target, p)
	return idx, err
}

// index is the shared store path: one reverse push per (graph,
// target, alpha, rmax) even under concurrent misses, with a persisted
// artifact consulted first when the store has a disk tier. cached is
// true when the caller did not pay for the push itself. p must
// already have defaults applied.
func (e *Estimator) index(ctx context.Context, g *graph.Graph, target graph.NodeID, p Params) (*TargetIndex, bool, error) {
	idx, tier, err := e.store.GetOrCompute(ctx, g, target, p.Alpha, p.RMax, func() (*TargetIndex, error) {
		return ReversePush(ctx, g, target, p.Alpha, p.RMax)
	})
	return idx, tier != TierComputed, err
}

// Pair estimates π(source, target): the probability that an
// Alpha-damped random walk from source stops at target.
func (e *Estimator) Pair(ctx context.Context, g *graph.Graph, source, target graph.NodeID, p Params) (Estimate, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return Estimate{}, err
	}
	if !g.ValidNode(source) {
		return Estimate{}, fmt.Errorf("bippr: source node %d not in graph (N=%d)", source, g.NumNodes())
	}
	idx, cached, err := e.index(ctx, g, target, p)
	if err != nil {
		return Estimate{}, err
	}
	est, err := e.pairWalks(ctx, g, source, idx, p)
	if err != nil {
		return Estimate{}, err
	}
	if cached {
		est.Pushes = 0
	}
	return est, nil
}

// pairWalks combines a target index with the walk term, going through
// the walk-endpoint cache when the query opted in: a cache hit
// re-weights the recorded endpoints for this index's residuals
// instead of simulating walks, and a miss records the pass for the
// next query from this source. Estimates are bit-identical to
// pairFromIndex either way — EndpointSet.EstimateSum folds the same
// sorted per-chunk counts, in the same order, that a fresh
// WalkEstimator.EstimateSum run would produce.
func (e *Estimator) pairWalks(ctx context.Context, g *graph.Graph, source graph.NodeID, idx *TargetIndex, p Params) (Estimate, error) {
	if !p.ReuseEndpoints {
		return pairFromIndex(ctx, g, source, idx, p)
	}
	value := idx.Estimates.Get(source)
	walks := 0
	if idx.MaxResidual > 0 && p.Walks > 0 {
		set, cached, err := e.endpoints.GetOrRecord(ctx, g, source, p, func() (*EndpointSet, error) {
			w := NewWalkEstimator(g, p.Alpha, p.Seed, p.MaxSteps)
			return w.Endpoints(ctx, source, p.Walks, p.Workers)
		})
		if err != nil {
			return Estimate{}, err
		}
		value += set.EstimateSum(idx.Residuals)
		walks = p.Walks
		if cached {
			// A hit re-weighted the recording instead of walking: count
			// the avoided work and note it on the enclosing phase span.
			metrics.reweights.Inc()
			metrics.walksAvoided.Add(int64(walks))
			if s := obs.FromContext(ctx); s != nil {
				s.AddMetric("walks_reused", float64(walks))
			}
		}
	}
	return Estimate{Value: value, Pushes: idx.Pushes, Walks: walks}, nil
}

// TargetRank ranks every node of g by its relevance to target: the
// score of s estimates π(s,t) with additive error below RMax. The
// result's Iterations field carries the push count and Residual the
// largest remaining residual.
func (e *Estimator) TargetRank(ctx context.Context, g *graph.Graph, target graph.NodeID, p Params) (*ranking.Result, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	idx, err := e.Index(ctx, g, target, p)
	if err != nil {
		return nil, err
	}
	// Dense materializes a fresh slice: ranking.Result owners may
	// normalize scores in place, and the index stays live in the cache.
	scores := idx.Estimates.Dense()
	res, err := ranking.NewResult(AlgorithmTarget, g, scores)
	if err != nil {
		return nil, err
	}
	res.Iterations = int(idx.Pushes)
	res.Residual = idx.MaxResidual
	return res, nil
}

// Bidirectional is the uncached one-shot pair estimate
// π(s,t) ≈ p_t(s) + (1/W)·Σ_walks r_t(endpoint). Serving layers that
// issue repeated queries should prefer an Estimator.
func Bidirectional(ctx context.Context, g *graph.Graph, source, target graph.NodeID, p Params) (Estimate, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return Estimate{}, err
	}
	if !g.ValidNode(source) {
		return Estimate{}, fmt.Errorf("bippr: source node %d not in graph (N=%d)", source, g.NumNodes())
	}
	idx, err := ReversePush(ctx, g, target, p.Alpha, p.RMax)
	if err != nil {
		return Estimate{}, err
	}
	return pairFromIndex(ctx, g, source, idx, p)
}

// pairFromIndex combines a target index with forward walks from
// source.
func pairFromIndex(ctx context.Context, g *graph.Graph, source graph.NodeID, idx *TargetIndex, p Params) (Estimate, error) {
	value := idx.Estimates.Get(source)
	walks := 0
	// The walk term Σ_v π(s,v)·r_t(v) is bounded by MaxResidual; when
	// the push already drained every residual (tiny graphs) the walks
	// would only add variance.
	if idx.MaxResidual > 0 && p.Walks > 0 {
		w := NewWalkEstimator(g, p.Alpha, p.Seed, p.MaxSteps)
		corr, err := w.EstimateSum(ctx, source, p.Walks, idx.Residuals, p.Workers)
		if err != nil {
			return Estimate{}, err
		}
		value += corr
		walks = p.Walks
	}
	return Estimate{Value: value, Pushes: idx.Pushes, Walks: walks}, nil
}
