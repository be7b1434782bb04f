package algo

import (
	"context"
	"math"

	"github.com/cyclerank/cyclerank-go/internal/artifact"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// Bounds of a registry's score-vector memo. Both are constants: the
// entry count is what one comparison query set needs (six vectors)
// plus slack, and every resident vector also costs the collector its
// headroom, so a larger memo shows up twice in the resident set. The
// byte budget keeps eight vectors of a multi-million-node graph from
// being what the process is made of.
const (
	memoEntries     = 8
	memoBudgetBytes = 64 << 20
)

// noSeed is the seed of the source-independent engines' keys.
const noSeed graph.NodeID = -1

// vectorKey identifies one score vector of the PageRank family: the
// graph by identity (the scheduler hands every task of a dataset the
// same *Graph until the dataset is replaced), the engine, and the
// parameters as the engines see them — defaults filled in, floats by
// their bits — so that `{}` and the spelled-out defaults share an
// entry and a NaN cannot make a key unequal to itself.
type vectorKey struct {
	g       *graph.Graph
	engine  string
	alpha   uint64
	tol     uint64
	maxIter int
	seed    graph.NodeID
}

// keyFor canonicalises the shared Params of one engine run on g; seed
// is noSeed for the engines that take no source.
func keyFor(g *graph.Graph, engine string, p Params, seed graph.NodeID) vectorKey {
	k := vectorKey{g: g, engine: engine, maxIter: p.MaxIter, seed: seed}
	alpha, tol := p.Alpha, p.Tol
	if alpha == 0 {
		alpha = pagerank.DefaultAlpha
	}
	if tol == 0 {
		tol = pagerank.DefaultTol
	}
	if k.maxIter == 0 {
		k.maxIter = pagerank.DefaultMaxIter
	}
	k.alpha, k.tol = math.Float64bits(alpha), math.Float64bits(tol)
	return k
}

// params is the power iteration the key stands for.
func (k vectorKey) params() pagerank.Params {
	p := pagerank.Params{
		Alpha:   math.Float64frombits(k.alpha),
		Tol:     math.Float64frombits(k.tol),
		MaxIter: k.maxIter,
	}
	if k.seed != noSeed {
		p.Seeds = []graph.NodeID{k.seed}
	}
	return p
}

// vectorMemo is the score-vector memo the six PageRank-family
// built-ins of one registry resolve through: a memory-only
// single-flight LRU, so that within a query set `2drank` and `p2drank`
// take their legs from the sibling tasks that compute them (or wait
// for them) and run only the sweep, and across requests the
// source-independent vectors are computed once per graph. An error is
// never stored, and a caller waiting on a peer that fails or is
// cancelled computes under its own context (artifact.Cache).
type vectorMemo struct {
	cache *artifact.Cache[vectorKey, *ranking.Result]
}

func newVectorMemo() *vectorMemo {
	return &vectorMemo{cache: artifact.New(artifact.Config[vectorKey, *ranking.Result]{
		Name:         "score_vector",
		Capacity:     memoEntries,
		Weight:       func(r *ranking.Result) int64 { return 8 * int64(len(r.Scores)) },
		WeightBudget: memoBudgetBytes,
	})}
}

// builtin is the PageRank-family built-in called name: resolve the
// source if the engine takes one, then the vector through the memo.
func (m *vectorMemo) builtin(name string, source bool, desc string) Func {
	return Func{
		AlgoName: name,
		AlgoDesc: desc,
		Source:   source,
		memo:     m,
		RunFunc: func(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
			seed := noSeed
			if source {
				src, err := p.ResolveSource(g)
				if err != nil {
					return nil, err
				}
				seed = src
			}
			return m.vector(ctx, keyFor(g, name, p, seed))
		},
	}
}

// vector returns the result k stands for. The caller gets its own
// copy of the header over the shared Scores slice, marked Cached
// unless this very call paid for every vector in it.
func (m *vectorMemo) vector(ctx context.Context, k vectorKey) (*ranking.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, tier, err := m.cache.GetOrCompute(ctx, k, func() (*ranking.Result, error) {
		return m.compute(ctx, k)
	})
	if err != nil {
		return nil, err
	}
	out := *res
	out.Cached = out.Cached || tier != artifact.TierComputed
	return &out, nil
}

// compute runs the engine k names: four own a power iteration, the
// two 2DRank engines are sweeps over pairs of those.
func (m *vectorMemo) compute(ctx context.Context, k vectorKey) (*ranking.Result, error) {
	switch k.engine {
	case NamePageRank:
		return pagerank.PageRank(ctx, k.g, k.params())
	case NamePPR:
		return pagerank.Personalized(ctx, k.g, k.params())
	case NameCheiRank:
		return pagerank.CheiRank(ctx, k.g, k.params())
	case NamePCheiRank:
		return pagerank.PersonalizedCheiRank(ctx, k.g, k.params())
	case Name2DRank:
		return m.sweep(ctx, k, NamePageRank, NameCheiRank)
	case NameP2DRank:
		return m.sweep(ctx, k, NamePPR, NamePCheiRank)
	}
	panic("algo: no PageRank-family engine " + k.engine) // keys are built by builtin alone
}

// sweep is a 2DRank engine: both legs through the memo, then the
// square sweep. The result is Cached when either leg was.
func (m *vectorMemo) sweep(ctx context.Context, k vectorKey, prEngine, crEngine string) (*ranking.Result, error) {
	leg := k
	leg.engine = prEngine
	pr, err := m.vector(ctx, leg)
	if err != nil {
		return nil, err
	}
	leg.engine = crEngine
	cr, err := m.vector(ctx, leg)
	if err != nil {
		return nil, err
	}
	res, err := pagerank.Combine2D(k.g, pr, cr, k.engine)
	if err != nil {
		return nil, err
	}
	res.Cached = pr.Cached || cr.Cached
	return res, nil
}

// forget drops every vector computed on g.
func (m *vectorMemo) forget(g *graph.Graph) {
	m.cache.DropFunc(func(k vectorKey) bool { return k.g == g })
}
