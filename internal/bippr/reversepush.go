package bippr

import (
	"context"
	"fmt"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// TargetIndex is the outcome of a reverse push towards one target:
// the local approximation of the full PPR column π(·,target).
//
// The push maintains, for every node s of the graph, the invariant
//
//	π(s,t) = Estimates.Get(s) + Σ_v π(s,v)·Residuals.Get(v)
//
// and terminates when every residual is strictly below the rmax it
// was run with, so Estimates.Get(s) ≤ π(s,t) < Estimates.Get(s) + rmax
// (because Σ_v π(s,v) ≤ 1).
//
// Both vectors are stored sparsely on large graphs (see Storage), so a
// cached index costs memory proportional to the nodes the push
// touched, not to graph size.
type TargetIndex struct {
	// Target is the node the index answers queries about.
	Target graph.NodeID
	// Alpha is the damping (continue) probability the index was built
	// with.
	Alpha float64
	// RMax is the residual threshold the index was built with.
	RMax float64
	// Estimates lower-bounds π(·, Target) per node.
	Estimates *Vector
	// Residuals holds the mass not yet pushed per node; all entries
	// are strictly below RMax.
	Residuals *Vector
	// Pushes is the number of push operations performed.
	Pushes int64
	// MaxResidual is the largest remaining residual (< RMax).
	MaxResidual float64
}

// cancelEvery is how many push operations pass between context
// checks.
const cancelEvery = 1 << 14

// ReversePush computes an approximate Personalized PageRank column
// towards target by local backward push over g's in-CSR (Andersen et
// al. 2007; Lofgren & Goel 2013). alpha is the damping (continue)
// probability; rmax the residual threshold (see TargetIndex). Storage
// is chosen automatically: dense arrays on small graphs, sparse maps
// on large ones.
//
// Work is local to the in-neighborhood of the target: the total push
// cost is O(Σ_pushed indeg) and independent of graph size for
// moderate rmax, which is what makes target and pair queries cheap on
// large graphs.
func ReversePush(ctx context.Context, g *graph.Graph, target graph.NodeID, alpha, rmax float64) (*TargetIndex, error) {
	return ReversePushStored(ctx, g, target, alpha, rmax, StorageAuto)
}

// ReversePushStored is ReversePush with an explicit index
// representation, used by benchmarks and equivalence tests. The push
// performs identical float operations in identical order under every
// Storage, so the resulting indexes are bit-identical; only memory
// layout differs.
//
// When the graph carries a layout view (see graph.Layout), the
// frontier runs entirely in the remapped id space — hubs packed at
// the low end, so the queue's repeated returns to high-degree nodes
// touch a compact prefix of the in-CSR instead of scattering — and
// the result vectors are translated back to original ids before
// return. Remapping changes the order residual mass accumulates, so
// a mapped and a direct push agree to the rmax guarantee (both
// satisfy the TargetIndex invariant), not bit-for-bit; within either
// mode all Storage choices remain bit-identical.
func ReversePushStored(ctx context.Context, g *graph.Graph, target graph.NodeID, alpha, rmax float64, storage Storage) (*TargetIndex, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("bippr: alpha=%v outside (0,1)", alpha)
	}
	if rmax <= 0 {
		return nil, fmt.Errorf("bippr: rmax=%v must be positive", rmax)
	}
	if !g.ValidNode(target) {
		return nil, fmt.Errorf("bippr: target node %d not in graph (N=%d)", target, g.NumNodes())
	}

	// Instrumentation sits at the run boundary: one span, one histogram
	// observe and two counter adds per push run, nothing inside the
	// push loop.
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "reverse_push")
	defer span.End()

	var idx *TargetIndex
	var err error
	if lay := g.Layout(); lay != nil {
		idx, err = pushLoop(ctx, mappedAdj{lay}, g.NumNodes(), lay.ToNew(target), alpha, rmax, storage)
		if err == nil {
			idx.Estimates = remapVector(idx.Estimates, lay)
			idx.Residuals = remapVector(idx.Residuals, lay)
			idx.Target = target
		}
	} else {
		idx, err = pushLoop(ctx, directAdj{g}, g.NumNodes(), target, alpha, rmax, storage)
	}
	if err != nil {
		return nil, err
	}

	span.SetMetric("pushes", float64(idx.Pushes))
	span.SetMetric("max_residual", idx.MaxResidual)
	metrics.pushRuns.Inc()
	metrics.pushOps.Add(idx.Pushes)
	metrics.pushSeconds.ObserveSince(start)
	return idx, nil
}

// adjacency is the in-neighborhood view the push loop walks: the
// graph's own CSR or the layout's remapped copy. pushLoop is generic
// over the concrete view so each instantiation compiles to direct
// array walks — no interface dispatch on the innermost loop. outRecip
// exposes the view's reciprocal out-degree table when it has one; a
// non-nil table selects the reciprocal kernel (see pushLoop).
type adjacency interface {
	in(v graph.NodeID) []graph.NodeID
	outDegree(v graph.NodeID) int
	outRecip() []float64
}

type directAdj struct{ g *graph.Graph }

func (a directAdj) in(v graph.NodeID) []graph.NodeID { return a.g.In(v) }
func (a directAdj) outDegree(v graph.NodeID) int     { return a.g.OutDegree(v) }
func (a directAdj) outRecip() []float64              { return nil }

type mappedAdj struct{ l *graph.Layout }

func (a mappedAdj) in(v graph.NodeID) []graph.NodeID { return a.l.In(v) }
func (a mappedAdj) outDegree(v graph.NodeID) int     { return a.l.OutDegree(v) }
func (a mappedAdj) outRecip() []float64              { return a.l.OutRecip() }

// pushBlock is the dense worklist's scatter batch width: 64 neighbors
// fill a few cache lines of ids and one line-friendly stack array of
// scaled contributions — small enough to stay register/L1-resident,
// large enough to amortize the loop split.
const pushBlock = 64

// pushLoop is the reverse-push worklist over one adjacency view; node
// ids are whatever space the view speaks.
//
// The neighbor scatter runs one of two kernels, chosen by the view.
// Without a reciprocal table (directAdj: layout-less graphs) the exact
// kernel divides v's residual by each in-neighbor's out-degree. With
// one (mappedAdj) the reciprocal kernel multiplies by the precomputed
// 1/outdeg instead — through pushWorklistDense when the vectors are
// dense, through Vector.addGet otherwise. Multiplying by a rounded
// reciprocal instead of dividing perturbs each contribution by ≤1
// ulp, so the two kernels agree to the rmax invariant (within 2·rmax —
// TestPushBlockedWithinRMax), not bit-for-bit; within either kernel
// all Storage choices remain bit-identical because the sequence of
// Vector/queue operations is unchanged.
func pushLoop[A adjacency](ctx context.Context, adj A, n int, target graph.NodeID, alpha, rmax float64, storage Storage) (*TargetIndex, error) {
	idx := &TargetIndex{
		Target:    target,
		Alpha:     alpha,
		RMax:      rmax,
		Estimates: newVector(n, storage),
		Residuals: newVector(n, storage),
	}
	stop := 1 - alpha
	res := idx.Residuals
	est := idx.Estimates
	rec := adj.outRecip()
	if rec != nil && res.dense != nil && est.dense != nil {
		// Dense storage (small graphs, or StorageDense): run the fully
		// specialized worklist — same operations in the same order, all
		// through direct array access. (A storage that is dense here
		// implies newNodeSet would be dense too; see newVector.)
		if err := pushWorklistDense(ctx, adj, idx, rec, n, target, rmax); err != nil {
			return nil, err
		}
		idx.MaxResidual = res.Max()
		return idx, nil
	}

	res.add(target, 1)
	var queue []graph.NodeID
	inQueue := newNodeSet(n, storage)
	if res.Get(target) >= rmax {
		queue = append(queue, target)
		inQueue.insert(target)
	}

	head := 0
	for head < len(queue) {
		// Compact the consumed front once it dominates the slice, so
		// the backing array is bounded by peak queue depth rather than
		// total enqueues (tight rmax re-enqueues nodes many times).
		if head > 1024 && head*2 > len(queue) {
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
		v := queue[head]
		head++
		inQueue.remove(v)

		idx.Pushes++
		if idx.Pushes%cancelEvery == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("bippr: reverse push cancelled: %w", ctx.Err())
			default:
			}
		}

		r := res.Get(v)
		if r < rmax {
			continue
		}
		res.zero(v)
		est.add(v, stop*r)

		// π(s,v) = (1−α)·1[s=v] + α·Σ_{u∈In(v)} π(s,u)/outdeg(u):
		// move v's residual to its in-neighbors, scaled by their
		// out-degrees. Dangling nodes never appear as in-neighbors, so
		// outdeg(u) ≥ 1 here.
		if rec != nil {
			scale := alpha * r
			for _, u := range adj.in(v) {
				if res.addGet(u, scale*rec[u]) >= rmax && !inQueue.has(u) {
					inQueue.insert(u)
					queue = append(queue, u)
				}
			}
			continue
		}
		for _, u := range adj.in(v) {
			res.add(u, alpha*r/float64(adj.outDegree(u)))
			if !inQueue.has(u) && res.Get(u) >= rmax {
				inQueue.insert(u)
				queue = append(queue, u)
			}
		}
	}

	idx.MaxResidual = res.Max()
	return idx, nil
}

// pushWorklistDense is the reciprocal kernel's dense-storage worklist:
// the exact sequence of operations pushLoop performs — queue pop,
// residual harvest, est accumulation, blocked reciprocal scatter,
// threshold-first enqueue — with every Vector/nodeSet probe replaced
// by a direct array access. On sparse-heavy catalog graphs the
// per-push prologue is a large share of the runtime, so specializing
// only the inner scatter leaves most of the win on the table; this
// loop removes the method-call overhead end to end. Float operations
// are identical to the generic reciprocal path (add is add, on an
// array instead of through a nil-check), keeping all dense/sparse/auto
// pushes over one view bit-identical.
func pushWorklistDense[A adjacency](ctx context.Context, adj A, idx *TargetIndex, rec []float64, n int, target graph.NodeID, rmax float64) error {
	alpha := idx.Alpha
	stop := 1 - alpha
	rd := idx.Residuals.dense
	ed := idx.Estimates.dense
	qd := make([]bool, n)

	rd[target] += 1
	var queue []graph.NodeID
	if rd[target] >= rmax {
		queue = append(queue, target)
		qd[target] = true
	}

	head := 0
	pushes := idx.Pushes
	var vals [pushBlock]float64
	for head < len(queue) {
		if head > 1024 && head*2 > len(queue) {
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
		v := queue[head]
		head++
		qd[v] = false

		pushes++
		if pushes%cancelEvery == 0 {
			select {
			case <-ctx.Done():
				idx.Pushes = pushes
				return fmt.Errorf("bippr: reverse push cancelled: %w", ctx.Err())
			default:
			}
		}

		r := rd[v]
		if r < rmax {
			continue
		}
		rd[v] = 0
		ed[v] += stop * r

		scale := alpha * r
		row := adj.in(v)
		for len(row) > 0 {
			blk := row
			if len(blk) > pushBlock {
				blk = row[:pushBlock]
			}
			row = row[len(blk):]
			// Compute pass: rows are deduplicated, so ids within a
			// block are distinct and the read-then-store split is safe.
			for j, u := range blk {
				vals[j] = rd[u] + scale*rec[u]
			}
			for j, u := range blk {
				nv := vals[j]
				rd[u] = nv
				if nv >= rmax && !qd[u] {
					qd[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	idx.Pushes = pushes
	return nil
}

// remapVector translates a layout-space vector back to original node
// ids, preserving the representation (a dense index stays dense, a
// sparse one sparse) so Storage round-trips exactly as before.
func remapVector(x *Vector, lay *graph.Layout) *Vector {
	out := &Vector{n: x.n, auto: x.auto}
	if x.dense != nil {
		out.dense = make([]float64, x.n)
		for v, val := range x.dense {
			if val != 0 {
				out.dense[lay.ToOld(graph.NodeID(v))] = val
			}
		}
		return out
	}
	out.sparse = make(map[graph.NodeID]float64, len(x.sparse))
	for v, val := range x.sparse {
		out.sparse[lay.ToOld(v)] = val
	}
	return out
}
