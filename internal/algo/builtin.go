package algo

import (
	"context"
	"fmt"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/core"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// Names of the seven algorithms showcased in the demo, plus the two
// experimental approximate PPR engines and the two bidirectional
// target-relevance engines.
const (
	NameCycleRank = "cyclerank"
	NamePageRank  = "pagerank"
	NamePPR       = "ppr"
	NameCheiRank  = "cheirank"
	NamePCheiRank = "pcheirank"
	Name2DRank    = "2drank"
	NameP2DRank   = "p2drank"
	NamePPRPush   = "ppr-push"
	NamePPRMC     = "ppr-mc"
	NamePPRTarget = bippr.AlgorithmTarget
	NameBiPPRPair = bippr.AlgorithmPair
)

// Default parameter values applied when Params fields are zero.
const (
	DefaultEpsilon = 1e-8
	DefaultWalks   = 10000
	DefaultMCSeed  = 1
)

// NewBuiltinRegistry returns a registry pre-populated with all
// built-in algorithms, backed by a memory-only index cache.
func NewBuiltinRegistry() *Registry {
	return NewBuiltinRegistryWith(bippr.NewEstimator(bippr.DefaultCacheSize))
}

// NewBuiltinRegistryWith is NewBuiltinRegistry with an explicit
// bidirectional estimator — the hook through which serving layers
// plug in a persistent two-tier index store (and keep a handle on its
// stats). A nil estimator selects the memory-only default.
func NewBuiltinRegistryWith(est *bippr.Estimator) *Registry {
	r := NewRegistry()
	for _, a := range BuiltinsWith(est) {
		if err := r.Register(a); err != nil {
			// Builtins have unique hard-coded names; a failure here is
			// a programming error, not a runtime condition.
			panic(err)
		}
	}
	return r
}

// BuiltinsWith returns fresh instances of every built-in algorithm.
// The two bidirectional engines share est (nil selects a fresh
// memory-only one), so repeated queries against the same target
// amortize the reverse push through its index cache for the lifetime
// of the registry. The six PageRank-family engines of one call share
// one score-vector memo (see vectorMemo); two calls share nothing.
func BuiltinsWith(est *bippr.Estimator) []Algorithm {
	if est == nil {
		est = bippr.NewEstimator(bippr.DefaultCacheSize)
	}
	memo := newVectorMemo()
	return []Algorithm{
		Func{
			AlgoName: NameCycleRank,
			AlgoDesc: "CycleRank: personalized relevance from elementary cycles through the reference node (Consonni et al. 2020)",
			Source:   true,
			RunFunc:  runCycleRank,
		},
		memo.builtin(NamePageRank, false,
			"PageRank: global relevance as the stationary visit probability of a damped random surfer (Page et al. 1999)"),
		memo.builtin(NamePPR, true,
			"Personalized PageRank: random walks restarting at the reference node"),
		memo.builtin(NameCheiRank, false,
			"CheiRank: PageRank on the transposed graph, ranking by outgoing connectivity (Chepelianskii 2010)"),
		memo.builtin(NamePCheiRank, true,
			"Personalized CheiRank: Personalized PageRank on the transposed graph"),
		memo.builtin(Name2DRank, false,
			"2DRank: combined PageRank/CheiRank square-sweep ranking (Zhirov et al. 2010)"),
		memo.builtin(NameP2DRank, true,
			"Personalized 2DRank: 2DRank over personalized PageRank and CheiRank orderings"),
		Func{
			AlgoName: NamePPRPush,
			AlgoDesc: "Approximate Personalized PageRank by local forward push (Andersen-Chung-Lang 2006); experimental",
			Source:   true,
			RunFunc: func(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
				src, err := p.ResolveSource(g)
				if err != nil {
					return nil, err
				}
				alpha := p.Alpha
				if alpha == 0 {
					alpha = pagerank.DefaultAlpha
				}
				eps := p.Epsilon
				if eps == 0 {
					eps = DefaultEpsilon
				}
				return pagerank.PushPPR(ctx, g, pagerank.PushParams{
					Alpha:   1 - alpha, // push uses stop probability
					Epsilon: eps,
					Seeds:   []graph.NodeID{src},
				})
			},
		},
		Func{
			AlgoName: NamePPRMC,
			AlgoDesc: "Approximate Personalized PageRank by Monte-Carlo random walks; experimental",
			Source:   true,
			RunFunc: func(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
				src, err := p.ResolveSource(g)
				if err != nil {
					return nil, err
				}
				alpha := p.Alpha
				if alpha == 0 {
					alpha = pagerank.DefaultAlpha
				}
				walks := p.Walks
				if walks == 0 {
					walks = DefaultWalks
				}
				seed := p.Seed
				if seed == 0 {
					seed = DefaultMCSeed
				}
				return pagerank.MonteCarloPPR(ctx, g, pagerank.MCParams{
					Alpha: alpha,
					Walks: walks,
					Seeds: []graph.NodeID{src},
					Seed:  seed,
				})
			},
		},
		Func{
			AlgoName: NamePPRTarget,
			AlgoDesc: "Target-node PPR: rank every node by its relevance TO the target via reverse push (Lofgren-Goel 2013)",
			Target:   true,
			RunFunc: func(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
				tgt, err := p.ResolveTarget(g)
				if err != nil {
					return nil, err
				}
				return est.TargetRank(ctx, g, tgt, bipprParams(p))
			},
		},
		Func{
			AlgoName: NameBiPPRPair,
			AlgoDesc: "Bidirectional PPR: fast source→target pair estimate by reverse push plus forward walks (Lofgren et al. 2016)",
			Source:   true,
			Target:   true,
			RunFunc: func(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
				src, err := p.ResolveSource(g)
				if err != nil {
					return nil, err
				}
				tgt, err := p.ResolveTarget(g)
				if err != nil {
					return nil, err
				}
				pair, err := est.Pair(ctx, g, src, tgt, bipprParams(p))
				if err != nil {
					return nil, err
				}
				// The pair estimate is a single number; report it as the
				// target's score so it flows through the platform's
				// result pipeline (top lists, tables, persistence). An
				// unreachable pair estimates to exactly 0 and yields an
				// empty top list — the platform-wide convention for "no
				// relevance" (CycleRank with no cycles behaves the same).
				scores := make([]float64, g.NumNodes())
				scores[tgt] = pair.Value
				res, err := ranking.NewResult(NameBiPPRPair, g, scores)
				if err != nil {
					return nil, err
				}
				res.Iterations = pair.Walks + int(pair.Pushes)
				return res, nil
			},
		},
	}
}

// bipprParams translates the shared Params into bippr.Params; zero
// fields fall through to the bippr defaults.
func bipprParams(p Params) bippr.Params {
	return bippr.Params{
		Alpha:          p.Alpha,
		RMax:           p.RMax,
		Walks:          p.Walks,
		Eps:            p.Eps,
		Seed:           p.Seed,
		Workers:        p.Workers,
		ReuseEndpoints: p.WalkReuse,
	}
}

func runCycleRank(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
	src, err := p.ResolveSource(g)
	if err != nil {
		return nil, err
	}
	k := p.K
	if k == 0 {
		k = core.DefaultK
	}
	name := p.Scoring
	if name == "" {
		name = core.ScoringExponential
	}
	fn, err := core.ScoringByName(name)
	if err != nil {
		return nil, err
	}
	return core.Compute(ctx, g, src, core.Params{K: k, Scoring: fn, ScoringName: name})
}

// Run is a convenience: resolve name in r and execute it, validating
// the source requirement up front for a clearer error.
func Run(ctx context.Context, r *Registry, name string, g *graph.Graph, p Params) (*ranking.Result, error) {
	a, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if a.NeedsSource() && p.Source == "" {
		return nil, fmt.Errorf("algo: %s requires a source node", name)
	}
	if NeedsTarget(a) && p.Target == "" {
		return nil, fmt.Errorf("algo: %s requires a target node", name)
	}
	return a.Run(ctx, g, p)
}
