package bippr

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// walkChunk is the number of walks one deterministic unit of work
// covers. Walks are partitioned into fixed chunks so that a worker
// pool can claim chunks independently while the final estimate stays
// bit-identical to the serial path: walk j of chunk c of source s
// always draws from the substream derived from (seed, s, c·128+j) and
// partial sums are always reduced in chunk order, regardless of how
// many workers ran them or in what order they finished. 128 walks
// form a cohort large enough for the batched stepper to amortize CSR
// row loads without starving a pool of schedulable units at typical
// walk counts.
const walkChunk = 128

// WalkEstimator simulates damped forward random walks over the
// graph's out-CSR. Endpoints are distributed according to π(source,·)
// under the package's dangling convention (see the package comment),
// which is exactly the sampling distribution the bidirectional
// estimator needs for its correction term Σ_v π(s,v)·r_t(v).
//
// Walks are seeded deterministically per (source, chunk, walk): two
// estimators built with the same seed produce identical estimates for
// the same source regardless of query order or worker count, making
// results reproducible under concurrent server traffic and across
// machine sizes.
type WalkEstimator struct {
	g        *graph.Graph
	alpha    float64
	seed     int64
	maxSteps int
	// table is the graph's packed (rowStart, degree) stepping table.
	// When present the batched stepper advances each walk through one
	// 8-byte load per step instead of materializing CSR row slices;
	// nil (overflowing graphs, Transpose views) falls back to slice
	// stepping. The table indexes the same adjacency array in the same
	// order, so both modes consume identical RNG draws and pick
	// identical nodes — bit-identity, not approximation.
	table *graph.SampleTable
}

// NewWalkEstimator builds a walk estimator with damping alpha,
// base RNG seed and per-walk step cap (0 selects DefaultMaxSteps).
func NewWalkEstimator(g *graph.Graph, alpha float64, seed int64, maxSteps int) *WalkEstimator {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	return &WalkEstimator{
		g: g, alpha: alpha, seed: seed, maxSteps: maxSteps,
		table: g.SampleTable(),
	}
}

// walkEndpoint simulates one walk from source on its own substream.
// ok is false when the walk was absorbed by a dangling node before
// stopping; such walks carry no endpoint mass.
func (w *WalkEstimator) walkEndpoint(rng *walkRNG, source graph.NodeID) (end graph.NodeID, ok bool) {
	v := source
	for step := 0; step < w.maxSteps; step++ {
		if rng.float64() >= w.alpha {
			return v, true // stop here
		}
		out := w.g.Out(v)
		if len(out) == 0 {
			return v, false // absorbed
		}
		v = out[rng.intn(len(out))]
	}
	// Truncation: treat the surviving walk as stopping at its current
	// node; at default parameters this biases by < 1e-7.
	return v, true
}

// walkKeyBits positions a walk's current node in the high bits of its
// packed cohort key, with the walk's index within the chunk in the
// low bits, so the live cohort is one flat []uint64 compacted in
// place — no struct moves. The static assert below keeps the index
// field wide enough for walkChunk.
const (
	walkKeyBits = 7
	walkKeyMask = 1<<walkKeyBits - 1
)

var _ = [1]struct{}{}[(walkChunk-1)>>walkKeyBits] // walkChunk must fit walkKeyBits

// walkScratch is one worker's reusable buffers for a chunk: the raw
// endpoint list, its run-length-encoded counts, and the batched
// stepper's cohort (per-walk RNG streams plus the packed node|index
// keys of the live walks). Buffers live in walkScratchPool across
// passes, so the steady-state walk path allocates nothing per chunk
// or per pass.
type walkScratch struct {
	ends   []graph.NodeID
	counts []EndpointCount
	rngs   []walkRNG
	keys   []uint64
}

// walkScratchPool pools walkScratch per worker across walk passes —
// a pass borrows one scratch per worker and returns it at the end.
var walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

// borrowScratch takes n pooled scratches (one per worker).
func borrowScratch(n int) []*walkScratch {
	sc := make([]*walkScratch, n)
	for i := range sc {
		sc[i] = walkScratchPool.Get().(*walkScratch)
	}
	return sc
}

// returnScratch gives the borrowed scratches back to the pool.
func returnScratch(sc []*walkScratch) {
	for _, s := range sc {
		walkScratchPool.Put(s)
	}
}

// appendEndpointsBatched advances the whole chunk as a
// struct-of-arrays cohort, level-synchronously: every live walk takes
// its k-th step before any takes its (k+1)-th, so early levels (all
// walks still near the source) keep hitting the same few adjacency
// rows. When the graph carries a SampleTable the per-walk advance is
// O(1): one packed 8-byte load replaces the two CSR offset reads and
// the row slice construction.
//
// Equivalence to stepping one walk at a time (walkEndpoint) is exact,
// not statistical: walk j's k-th draw comes from its private substream
// either way (stop test first, then the out-edge pick — walkEndpoint's
// order), and the endpoint list is sorted before run-length encoding
// so its accumulation order never depends on cohort order.
// TestBatchedSteppingBitIdentical holds the two to bit-equality.
func (w *WalkEstimator) appendEndpointsBatched(ends []graph.NodeID, sc *walkScratch, source graph.NodeID, chunk, count int) []graph.NodeID {
	rngs := sc.rngs[:0]
	live := sc.keys[:0]
	base := uint64(chunk) * walkChunk
	for i := 0; i < count; i++ {
		rngs = append(rngs, newWalkRNG(w.seed, source, base+uint64(i)))
		live = append(live, uint64(uint32(source))<<walkKeyBits|uint64(i))
	}
	sc.rngs, sc.keys = rngs, live

	tab := w.table
	for step := 0; step < w.maxSteps && len(live) > 0; step++ {
		kept := live[:0]
		if tab != nil {
			// O(1) stepping: one packed-word load gives degree and row
			// start; no CSR offset reads, no row slice headers. The
			// table indexes the same outAdj array the slice path reads,
			// so draw-for-draw the chosen nodes are identical.
			for _, key := range live {
				node := graph.NodeID(key >> walkKeyBits)
				rng := &rngs[key&walkKeyMask]
				if rng.float64() >= w.alpha {
					ends = append(ends, node) // stopped here
					continue
				}
				deg := tab.Degree(node)
				if deg == 0 {
					continue // absorbed: no endpoint mass
				}
				next := tab.Pick(node, rng.intn(deg))
				kept = append(kept, uint64(uint32(next))<<walkKeyBits|key&walkKeyMask)
			}
			live = kept
			continue
		}
		var row []graph.NodeID
		rowNode := graph.NodeID(-1)
		for _, key := range live {
			node := graph.NodeID(key >> walkKeyBits)
			rng := &rngs[key&walkKeyMask]
			if rng.float64() >= w.alpha {
				ends = append(ends, node) // stopped here
				continue
			}
			if node != rowNode {
				rowNode = node
				row = w.g.Out(rowNode)
			}
			if len(row) == 0 {
				continue // absorbed: no endpoint mass
			}
			next := row[rng.intn(len(row))]
			kept = append(kept, uint64(uint32(next))<<walkKeyBits|key&walkKeyMask)
		}
		live = kept
	}
	// Truncation: surviving walks stop at their current node.
	for _, key := range live {
		ends = append(ends, graph.NodeID(key>>walkKeyBits))
	}
	return ends
}

// chunkEndpointsInto simulates the walks of one chunk and returns its
// endpoint counts, sorted by node id, built in sc's reusable buffers —
// the result is only valid until the next call with the same scratch
// (recording callers must clone it). Absorbed walks carry no endpoint
// and do not appear. The sorted-count form is the chunk's canonical
// summary: both the fresh-walk path and the endpoint-reuse path fold
// it with weighChunk, so a recorded chunk re-weighted for a new
// target performs float operations identical to re-walking.
func (w *WalkEstimator) chunkEndpointsInto(sc *walkScratch, source graph.NodeID, chunk, count int) []EndpointCount {
	ends := w.appendEndpointsBatched(sc.ends[:0], sc, source, chunk, count)
	slices.Sort(ends)
	out := sc.counts[:0]
	for _, e := range ends {
		if n := len(out); n > 0 && out[n-1].Node == e {
			out[n-1].Count++
		} else {
			out = append(out, EndpointCount{Node: e, Count: 1})
		}
	}
	sc.ends, sc.counts = ends, out
	return out
}

// weighChunk folds one chunk's sorted endpoint counts with a weight
// vector: Σ count·weight(node), accumulated in ascending node order.
// Every consumer of a chunk — fresh walks, recorded endpoints — sums
// through this one function, which is what makes re-weighted estimates
// bit-identical to fresh-walk estimates.
func weighChunk(endpoints []EndpointCount, weight *Vector) float64 {
	var sum float64
	for _, e := range endpoints {
		sum += float64(e.Count) * weight.Get(e.Node)
	}
	return sum
}

// chunkSum runs the walks of one chunk and returns Σ count·weight over
// its endpoints.
func (w *WalkEstimator) chunkSum(sc *walkScratch, source graph.NodeID, chunk, count int, weight *Vector) float64 {
	return weighChunk(w.chunkEndpointsInto(sc, source, chunk, count), weight)
}

// numChunks returns how many walkChunk-sized chunks cover walks.
func numChunks(walks int) int {
	return (walks + walkChunk - 1) / walkChunk
}

// chunkCount returns how many walks chunk c of walks carries (the
// last chunk may be short).
func chunkCount(walks, c int) int {
	if c == numChunks(walks)-1 {
		if rem := walks - c*walkChunk; rem > 0 {
			return rem
		}
	}
	return walkChunk
}

// clampWorkers bounds a requested pool size: at least 1, at most
// GOMAXPROCS (more would only contend), at most one worker per chunk.
func clampWorkers(workers, chunks int) int {
	if workers < 1 {
		workers = 1
	}
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}
	if workers > chunks {
		workers = chunks
	}
	return workers
}

// EffectiveWorkers reports the pool size a pair query with the given
// requested workers and walk count actually runs — the clamp applied
// inside EstimateSum — so reporting layers (crbench's sharding
// ablation) can label measurements with what executed rather than
// what was asked for.
func EffectiveWorkers(workers, walks int) int {
	if walks <= 0 {
		return 1
	}
	return clampWorkers(workers, numChunks(walks))
}

// EstimateSum returns (1/walks)·Σ weight(endpoint) over walks damped
// forward walks from source — an unbiased estimate of
// Σ_v π(source,v)·weight(v) up to step truncation. weight must span
// the graph's nodes.
//
// workers sizes the walk worker pool; values below 1 select the
// serial path and the pool is bounded by GOMAXPROCS. The estimate is
// bit-identical for every worker count: walks are partitioned into
// deterministically seeded chunks (see walkChunk) whose partial sums
// are reduced in chunk order no matter which worker produced them.
func (w *WalkEstimator) EstimateSum(ctx context.Context, source graph.NodeID, walks int, weight *Vector, workers int) (float64, error) {
	ctx, err := w.validateWalkArgs(ctx, source, walks)
	if err != nil {
		return 0, err
	}
	if weight.NumNodes() != w.g.NumNodes() {
		return 0, fmt.Errorf("bippr: weight vector spans %d nodes, graph has %d", weight.NumNodes(), w.g.NumNodes())
	}

	chunks := numChunks(walks)
	workers = clampWorkers(workers, chunks)

	// Instrumentation at the pass boundary only: one span and a few
	// counter adds per pass, nothing inside the per-walk loop.
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "walks")
	span.SetMetric("walks", float64(walks))
	span.SetMetric("chunks", float64(chunks))
	span.SetMetric("workers", float64(workers))
	defer span.End()

	partial := make([]float64, chunks)
	scratch := borrowScratch(workers)
	err = forEachChunk(ctx, chunks, workers, func(worker, c int) {
		partial[c] = w.chunkSum(scratch[worker], source, c, chunkCount(walks, c), weight)
	})
	returnScratch(scratch)
	if err != nil {
		return 0, err
	}
	observeWalkPass(start, walks, chunks)

	// Deterministic reduction: chunk order, independent of workers.
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum / float64(walks), nil
}

// Endpoints simulates walks forward walks from source and records
// their endpoints as per-chunk sorted counts — the reusable half of a
// pair query. The returned set depends only on (graph, alpha, seed,
// maxSteps, source, walks): re-weighting it for any target index
// yields estimates bit-identical to fresh walks (EndpointSet.
// EstimateSum folds chunks exactly like EstimateSum does). workers
// shards the recording like EstimateSum; the recorded set is
// identical for every pool size.
func (w *WalkEstimator) Endpoints(ctx context.Context, source graph.NodeID, walks, workers int) (*EndpointSet, error) {
	ctx, err := w.validateWalkArgs(ctx, source, walks)
	if err != nil {
		return nil, err
	}

	chunks := numChunks(walks)
	workers = clampWorkers(workers, chunks)

	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "walk_record")
	span.SetMetric("walks", float64(walks))
	span.SetMetric("chunks", float64(chunks))
	span.SetMetric("workers", float64(workers))
	defer span.End()

	set := &EndpointSet{Walks: walks, chunks: make([][]EndpointCount, chunks)}
	scratch := borrowScratch(workers)
	err = forEachChunk(ctx, chunks, workers, func(worker, c int) {
		// The recorded set outlives the pass; clone out of the scratch.
		set.chunks[c] = slices.Clone(w.chunkEndpointsInto(scratch[worker], source, c, chunkCount(walks, c)))
	})
	returnScratch(scratch)
	if err != nil {
		return nil, err
	}
	observeWalkPass(start, walks, chunks)
	if m := metrics.Load(); m != nil {
		m.walksRecorded.Add(int64(walks))
	}
	return set, nil
}

// observeWalkPass records one completed walk pass in the package
// counters.
func observeWalkPass(start time.Time, walks, chunks int) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.walkPasses.Inc()
	m.walks.Add(int64(walks))
	m.walkChunks.Add(int64(chunks))
	m.walkSeconds.ObserveSince(start)
}

// validateWalkArgs is the shared guard of every walk pass — fresh
// (EstimateSum) and recording (Endpoints) alike, so the two paths of
// the bit-identity contract cannot drift on what they accept.
func (w *WalkEstimator) validateWalkArgs(ctx context.Context, source graph.NodeID, walks int) (context.Context, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if walks <= 0 {
		return ctx, fmt.Errorf("bippr: walks=%d must be positive", walks)
	}
	if walks > MaxWalks {
		return ctx, fmt.Errorf("bippr: walks=%d exceeds the cap %d", walks, MaxWalks)
	}
	if !w.g.ValidNode(source) {
		return ctx, fmt.Errorf("bippr: walk source %d not in graph (N=%d)", source, w.g.NumNodes())
	}
	return ctx, nil
}

// forEachChunk runs fn for every chunk index in [0, chunks) — serially
// when the (already clamped) pool is one worker, otherwise across a
// pool that claims indices from a shared counter. fn receives its
// worker's index in [0, workers) for per-worker scratch, and each
// chunk index is processed by exactly one worker, so fn may write its
// slot without locking. The walk paths (EstimateSum, Endpoints) share
// this scaffolding so the cancellation and claiming semantics cannot
// drift between them.
func forEachChunk(ctx context.Context, chunks, workers int, fn func(worker, c int)) error {
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			select {
			case <-ctx.Done():
				return fmt.Errorf("bippr: walks cancelled: %w", ctx.Err())
			default:
			}
			fn(0, c)
		}
		return nil
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		cancelled atomic.Bool
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				select {
				case <-ctx.Done():
					cancelled.Store(true)
					return
				default:
				}
				fn(worker, c)
			}
		}(i)
	}
	wg.Wait()
	if cancelled.Load() {
		return fmt.Errorf("bippr: walks cancelled: %w", ctx.Err())
	}
	return nil
}

// Distribution estimates the endpoint distribution π(source,·) from
// walks samples — a testing and diagnostics aid; pair queries use
// EstimateSum directly. It draws from the same per-walk substreams as
// EstimateSum but always runs serially: parallel merging of the
// per-node histogram would make the float accumulation order (and so
// the low bits) depend on the worker count.
func (w *WalkEstimator) Distribution(ctx context.Context, source graph.NodeID, walks int) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if walks <= 0 {
		return nil, fmt.Errorf("bippr: walks=%d must be positive", walks)
	}
	if walks > MaxWalks {
		return nil, fmt.Errorf("bippr: walks=%d exceeds the cap %d", walks, MaxWalks)
	}
	if !w.g.ValidNode(source) {
		return nil, fmt.Errorf("bippr: walk source %d not in graph (N=%d)", source, w.g.NumNodes())
	}
	dist := make([]float64, w.g.NumNodes())
	inc := 1 / float64(walks)
	for c := 0; c < numChunks(walks); c++ {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("bippr: walks cancelled: %w", ctx.Err())
		default:
		}
		base := uint64(c) * walkChunk
		for i := 0; i < chunkCount(walks, c); i++ {
			rng := newWalkRNG(w.seed, source, base+uint64(i))
			if end, ok := w.walkEndpoint(&rng, source); ok {
				dist[end] += inc
			}
		}
	}
	return dist, nil
}
