package pagerank

import (
	"context"
	"fmt"

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
// contains it. K and K* are permutations of 1..N (ranking.Result.Rank),
// so at each step at most one node enters on each border: first the
// node with K = s if its K* ≤ s (the vertical border, corner
// included), then the node with K* = s if its K < s (strictly on the
// horizontal border) — a deterministic refinement of the paper's
// border walk. The sweep is O(N) after the two ranks.
//
// 2DRank produces an ordering, not a score; for uniformity with the
// other algorithms the result assigns score 1/position to each node.
// Its Iterations is the sum of the two legs'. Each leg must carry one
// score per node of g.
func Combine2D(g *graph.Graph, prRes, crRes *ranking.Result, name string) (*ranking.Result, error) {
	n := g.NumNodes()
	if len(prRes.Scores) != n || len(crRes.Scores) != n {
		return nil, fmt.Errorf("pagerank: %s: legs have %d and %d scores for %d nodes", name, len(prRes.Scores), len(crRes.Scores), n)
	}
	kPR := prRes.Rank() // 1-based PageRank positions
	kCR := crRes.Rank() // 1-based CheiRank positions

	// byPR[K-1] is the node at PageRank position K, byCR likewise.
	byPR := make([]graph.NodeID, n)
	byCR := make([]graph.NodeID, n)
	for v := range n {
		byPR[kPR[v]-1] = graph.NodeID(v)
		byCR[kCR[v]-1] = graph.NodeID(v)
	}

	scores := make([]float64, n)
	pos := 0
	for s := 1; s <= n; s++ {
		if v := byPR[s-1]; kCR[v] <= s {
			pos++
			scores[v] = 1 / float64(pos)
		}
		if v := byCR[s-1]; kPR[v] < s {
			pos++
			scores[v] = 1 / float64(pos)
		}
	}
	res, err := ranking.NewResult(name, g, scores)
	if err != nil {
		return nil, err
	}
	res.Iterations = prRes.Iterations + crRes.Iterations
	return res, nil
}
