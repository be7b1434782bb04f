package task

import (
	"math"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
)

// CostStats is the slice of graph statistics the cost model needs:
// cheap enough that the scheduler keeps them per cached dataset and
// Submit can price a request WITHOUT loading the graph (an unknown
// dataset prices with fallback defaults — stamping a price must never
// pay a load).
type CostStats struct {
	Nodes int   `json:"nodes"`
	Edges int64 `json:"edges"`
}

// Cost-model fallbacks for datasets whose stats are not yet known
// (nothing has loaded the graph this boot). Sized like the catalog's
// mid-sized datasets so cold-start pricing errs on the expensive side
// for tiny graphs rather than under-admitting big ones.
const (
	costFallbackNodes     = 10_000
	costFallbackAvgDegree = 8.0
)

func (st CostStats) nodes() float64 {
	if st.Nodes <= 0 {
		return costFallbackNodes
	}
	return float64(st.Nodes)
}

func (st CostStats) edges() float64 {
	if st.Edges <= 0 {
		return st.nodes() * costFallbackAvgDegree
	}
	return float64(st.Edges)
}

func (st CostStats) avgDegree() float64 {
	d := st.edges() / st.nodes()
	if d < 1 {
		return 1
	}
	return d
}

// MaxCostUnits is the finite ceiling every estimate is clamped to at
// stamp time. The estimate is served as the task's estimated_cost, and
// encoding/json refuses +Inf and NaN: an unclamped estimate (a zero
// rmax prices to +Inf) would make the task document unencodable. So
// "absurdly expensive" is represented as this ceiling — 10^15
// elementary operations, days of work.
const MaxCostUnits = 1e15

// clampCost maps an estimate onto (0, MaxCostUnits]: non-finite or
// over-ceiling values (a zero rmax pricing to +Inf, a pathological K)
// become the ceiling, and NaN — unknowable — is priced as the ceiling
// too.
func clampCost(u float64) float64 {
	if math.IsNaN(u) || u > MaxCostUnits {
		return MaxCostUnits
	}
	return u
}

// EstimateCost prices a spec in abstract work units — roughly
// "elementary graph operations": one reverse-push edge update, one
// random-walk step, one edge relaxation of a power iteration. The
// point is not microsecond accuracy but ordering and additivity: a
// poll can compare the price with the run time, and prices of a query
// set add up.
//
// For the bidirectional estimator the model is Lofgren's balance
// point: reverse-push work scales like d̄/((1−α)·rmax) — antitone in
// rmax — and forward-walk work like walks·E[len] with E[len] =
// min(α/(1−α), maxSteps) — monotone in the walk count. Both shapes
// are locked by TestCostEstimatorMonotone, and the absolute scale is
// sanity-banded against measured pushes+walks in
// TestEstimateVsActualWithinBand.
//
// A batch spec prices as the sum of its subqueries.
//
// The return value is always finite: estimates are clamped to
// MaxCostUnits at stamp time (see clampCost), so the task document
// that carries them always encodes.
func EstimateCost(s Spec, st CostStats) float64 {
	if s.IsBatch() {
		var sum float64
		for _, q := range s.Queries {
			alg := q.Algorithm
			if alg == "" {
				alg = s.Algorithm
			}
			sum += estimateQueryCost(alg, q.Params, st)
		}
		return clampCost(sum)
	}
	return clampCost(estimateQueryCost(s.Algorithm, s.Params, st))
}

// estimateQueryCost prices one (algorithm, params) query.
func estimateQueryCost(algorithm string, p algo.Params, st CostStats) float64 {
	alpha := p.Alpha
	if alpha == 0 {
		alpha = bippr.DefaultAlpha
	}
	switch algorithm {
	case "bippr-pair":
		return pushCost(alpha, rmaxOrDefault(p), st) + walkCost(alpha, p)
	case "ppr-target":
		return pushCost(alpha, rmaxOrDefault(p), st)
	case "ppr-mc":
		return walkCost(alpha, p)
	case "ppr-push":
		eps := p.Epsilon
		if eps == 0 {
			eps = algo.DefaultEpsilon
		}
		// Forward push mirrors reverse push with the roles of rmax and
		// epsilon swapped: residual mass drains at (1−α) per push, each
		// push fans out over out-degree edges.
		return pushCost(alpha, eps, st)
	case "pagerank", "ppr", "cheirank", "pcheirank":
		return iterCost(alpha, p, st)
	case "2drank", "p2drank":
		// Two full power iterations (rank and cheirank legs).
		return 2 * iterCost(alpha, p, st)
	case "cyclerank":
		// Bounded-length cycle enumeration explores ~d̄^K paths from the
		// source neighborhood; capped so pathological K stays finite.
		k := p.K
		if k == 0 {
			k = 3
		}
		return math.Min(math.Pow(st.avgDegree(), float64(k))+st.edges(), MaxCostUnits)
	}
	// Unknown algorithm: one full pass over the graph.
	return st.nodes() + st.edges()
}

// pushCost models local-push work (reverse or forward) at residual
// threshold rmax: at most 1/((1−α)·rmax) pushes each touching ~d̄
// edges, but never more than a full power iteration run to the same
// precision — on small or dense graphs residuals saturate and the
// frontier is the whole graph, so m·log(1/rmax)/log(1/α) is the
// binding bound. Both legs are antitone in rmax, so the min is too.
func pushCost(alpha, rmax float64, st CostStats) float64 {
	if rmax <= 0 || alpha >= 1 {
		return math.Inf(1)
	}
	local := st.avgDegree() / ((1 - alpha) * rmax)
	iters := math.Log(1/rmax) / math.Log(1/alpha)
	if iters < 1 {
		iters = 1
	}
	saturated := st.edges() * iters
	return math.Min(local, saturated)
}

// walkCost models forward random-walk work: the walk count (explicit,
// or the Hoeffding count derived from eps) times the expected walk
// length min(α/(1−α), maxSteps) under continue-probability α.
func walkCost(alpha float64, p algo.Params) float64 {
	walks := float64(p.Walks)
	if p.Walks == 0 && p.Eps == 0 {
		walks = bippr.DefaultWalks
	}
	if p.Eps > 0 {
		walks = float64(bippr.WalksForError(rmaxOrDefault(p), p.Eps))
	}
	expLen := alpha / (1 - alpha)
	if expLen > bippr.DefaultMaxSteps {
		expLen = bippr.DefaultMaxSteps
	}
	if expLen < 1 {
		expLen = 1
	}
	return walks * expLen
}

// iterCost models a dense power iteration: iterations to reach tol at
// damping alpha (geometric decay), capped at the engine's MaxIter,
// each iteration relaxing every edge.
func iterCost(alpha float64, p algo.Params, st CostStats) float64 {
	tol := p.Tol
	if tol == 0 {
		tol = pagerank.DefaultTol
	}
	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = pagerank.DefaultMaxIter
	}
	iters := math.Log(1/tol) / math.Log(1/alpha)
	if iters < 1 {
		iters = 1
	}
	if iters > float64(maxIter) {
		iters = float64(maxIter)
	}
	return iters * st.edges()
}

func rmaxOrDefault(p algo.Params) float64 {
	if p.RMax == 0 {
		return bippr.DefaultRMax
	}
	return p.RMax
}
