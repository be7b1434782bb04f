package pagerank

import (
	"context"
	"fmt"
	"sort"

	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// TwoDRank computes 2DRank (Zhirov, Zhirov & Shepelyansky 2010), which
// combines the PageRank ordering K and the CheiRank ordering K* into a
// single ranking: the square sweep of Combine2D over the two legs.
func TwoDRank(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
	return twoD(ctx, g, p, "2drank", PageRank, CheiRank)
}

// PersonalizedTwoDRank runs the 2DRank square sweep over the
// Personalized PageRank and Personalized CheiRank orderings.
func PersonalizedTwoDRank(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
	if len(p.Seeds) == 0 {
		return nil, fmt.Errorf("pagerank: personalized 2drank requires at least one seed")
	}
	return twoD(ctx, g, p, "p2drank", Personalized, PersonalizedCheiRank)
}

// twoD computes the two legs and sweeps them.
func twoD(ctx context.Context, g *graph.Graph, p Params, name string, pageRank, cheiRank func(context.Context, *graph.Graph, Params) (*ranking.Result, error)) (*ranking.Result, error) {
	pr, err := pageRank(ctx, g, p)
	if err != nil {
		return nil, err
	}
	cr, err := cheiRank(ctx, g, p)
	if err != nil {
		return nil, err
	}
	return Combine2D(g, pr, cr, name)
}

// Combine2D performs the 2DRank square sweep given the two
// constituent rankings, however the caller came by them. The original
// procedure sweeps growing squares in the (K, K*) plane: a node enters
// the ranking at step s = max(K, K*), i.e. when the s×s square first
// contains it. Within one step, nodes on the vertical border (K = s)
// are appended first in ascending K*, then nodes strictly on the
// horizontal border (K* = s, K < s) in ascending K — a deterministic
// refinement of the paper's border walk.
//
// 2DRank produces an ordering, not a score; for uniformity with the
// other algorithms the result assigns score 1/position to each node.
// Its Iterations is the sum of the two legs'.
func Combine2D(g *graph.Graph, prRes, crRes *ranking.Result, name string) (*ranking.Result, error) {
	n := g.NumNodes()
	kPR := prRes.Rank() // 1-based PageRank positions
	kCR := crRes.Rank() // 1-based CheiRank positions

	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		u, v := ids[a], ids[b]
		su := max2(kPR[u], kCR[u])
		sv := max2(kPR[v], kCR[v])
		if su != sv {
			return su < sv // earlier square first
		}
		// Same square step: vertical border (K == s) before horizontal.
		uVert := kPR[u] == su
		vVert := kPR[v] == sv
		if uVert != vVert {
			return uVert
		}
		if uVert {
			// Both on vertical border: ascending K*.
			if kCR[u] != kCR[v] {
				return kCR[u] < kCR[v]
			}
		} else {
			// Both on horizontal border: ascending K.
			if kPR[u] != kPR[v] {
				return kPR[u] < kPR[v]
			}
		}
		return u < v
	})

	scores := make([]float64, n)
	for pos, v := range ids {
		scores[v] = 1 / float64(pos+1)
	}
	res, err := ranking.NewResult(name, g, scores)
	if err != nil {
		return nil, err
	}
	res.Iterations = prRes.Iterations + crRes.Iterations
	return res, nil
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
