package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/core"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// KSweep measures CycleRank's cost and yield as the maximum cycle
// length K grows (experiment A1): cycles found, nodes scored and wall
// time per K on the English Wikipedia snapshot.
func KSweep(ctx context.Context, dataset, source string, maxK int) (*Table, error) {
	g, err := loadDataset(dataset)
	if err != nil {
		return nil, err
	}
	src, ok := g.NodeByLabel(source)
	if !ok {
		return nil, fmt.Errorf("experiments: source %q not in %s", source, dataset)
	}
	t := &Table{
		ID:      "ablation-k-sweep",
		Title:   fmt.Sprintf("CycleRank vs K on %s (reference %q)", dataset, source),
		Headers: []string{"K", "cycles", "nodes scored", "time"},
	}
	for k := 2; k <= maxK; k++ {
		var res *ranking.Result
		dur, err := timed(func() error {
			var err error
			res, err = core.Compute(ctx, g, src, core.Params{K: k})
			return err
		})
		if err != nil {
			return nil, err
		}
		scored := 0
		for _, s := range res.Scores {
			if s > 0 {
				scored++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", res.CyclesFound),
			fmt.Sprintf("%d", scored),
			dur.Round(time.Microsecond).String(),
		})
	}
	return t, nil
}

// PrunedVsNaive quantifies the value of CycleRank's distance pruning
// (experiment A2) on dense random graphs where naive enumeration is
// still feasible.
func PrunedVsNaive(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "ablation-pruned-vs-naive",
		Title:   "CycleRank pruned enumerator vs naive oracle (Erdős–Rényi graphs, K=4)",
		Headers: []string{"n", "edges", "cycles", "pruned", "naive", "speedup"},
	}
	cat, err := loadDataset("er-dense") // 500 nodes, p=0.05
	if err != nil {
		return nil, err
	}
	sub := []int{100, 200, 400}
	for _, n := range sub {
		g := subgraphPrefix(cat, n)
		src := graph.NodeID(0)
		var fast *ranking.Result
		fastDur, err := timed(func() error {
			var err error
			fast, err = core.Compute(ctx, g, src, core.Params{K: 4})
			return err
		})
		if err != nil {
			return nil, err
		}
		var slowCycles int64
		slowDur, err := timed(func() error {
			res, _, err := core.NaiveScores(g, src, core.Params{K: 4})
			if err != nil {
				return err
			}
			slowCycles = res.CyclesFound
			return nil
		})
		if err != nil {
			return nil, err
		}
		if slowCycles != fast.CyclesFound {
			return nil, fmt.Errorf("experiments: pruned %d cycles, naive %d — implementations disagree",
				fast.CyclesFound, slowCycles)
		}
		speedup := float64(slowDur) / float64(fastDur)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", g.NumEdges()),
			fmt.Sprintf("%d", fast.CyclesFound),
			fastDur.Round(time.Microsecond).String(),
			slowDur.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", speedup),
		})
	}
	return t, nil
}

// subgraphPrefix induces the subgraph on nodes [0, n).
func subgraphPrefix(g *graph.Graph, n int) *graph.Graph {
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	b := graph.NewBuilder(n)
	g.Edges(func(u, v graph.NodeID) bool {
		if int(u) < n && int(v) < n {
			b.AddEdge(u, v)
		}
		return true
	})
	sub, err := b.Build()
	if err != nil {
		// Prefix induction of a valid graph cannot produce invalid
		// edges; reaching here is a programming error.
		panic(err)
	}
	return sub
}

// PPREngines compares the three Personalized PageRank engines
// (experiment A3): exact power iteration, forward push, Monte-Carlo —
// L1 error against exact, top-10 Jaccard, and wall time.
func PPREngines(ctx context.Context, dataset, source string) (*Table, error) {
	g, err := loadDataset(dataset)
	if err != nil {
		return nil, err
	}
	src, ok := g.NodeByLabel(source)
	if !ok {
		return nil, fmt.Errorf("experiments: source %q not in %s", source, dataset)
	}
	seeds := []graph.NodeID{src}

	var exact *ranking.Result
	exactDur, err := timed(func() error {
		var err error
		exact, err = pagerank.Personalized(ctx, g, pagerank.Params{Alpha: 0.85, Seeds: seeds})
		return err
	})
	if err != nil {
		return nil, err
	}

	var push *ranking.Result
	pushDur, err := timed(func() error {
		var err error
		push, err = pagerank.PushPPR(ctx, g, pagerank.PushParams{Alpha: 0.15, Epsilon: 1e-7, Seeds: seeds})
		return err
	})
	if err != nil {
		return nil, err
	}

	var mc *ranking.Result
	mcDur, err := timed(func() error {
		var err error
		mc, err = pagerank.MonteCarloPPR(ctx, g, pagerank.MCParams{Alpha: 0.85, Walks: 20000, Seeds: seeds, Seed: 1})
		return err
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ablation-ppr-engines",
		Title:   fmt.Sprintf("PPR engines on %s (source %q, α=0.85)", dataset, source),
		Headers: []string{"engine", "L1 error vs exact", "Jaccard@10 vs exact", "time"},
	}
	add := func(name string, res *ranking.Result, dur time.Duration) {
		var l1 float64
		for v := range exact.Scores {
			l1 += math.Abs(exact.Scores[v] - res.Scores[v])
		}
		jac := ranking.JaccardAtK(exact, res, 10)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2e", l1),
			fmt.Sprintf("%.3f", jac),
			dur.Round(time.Microsecond).String(),
		})
	}
	add("power-iteration (exact)", exact, exactDur)
	add("forward-push", push, pushDur)
	add("monte-carlo", mc, mcDur)
	return t, nil
}

// ScoringAblation re-runs the Table I Freddie Mercury query under all
// four scoring functions (experiment A4), showing how σ reshapes the
// top of the ranking.
func ScoringAblation(ctx context.Context, reg *algo.Registry) (*Table, error) {
	g, err := loadDataset("enwiki-2018")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-scoring",
		Title:   "CycleRank top-5 under each scoring function (enwiki-2018, Freddie Mercury, K=3)",
		Headers: []string{"#"},
	}
	var columns [][]string
	for _, name := range core.ScoringNames() {
		top, _, err := topN(ctx, reg, algo.NameCycleRank, g,
			algo.Params{Source: "Freddie Mercury", K: 3, Scoring: name}, TopK)
		if err != nil {
			return nil, err
		}
		columns = append(columns, pad(top, TopK))
		t.Headers = append(t.Headers, "σ="+name)
	}
	for i := 0; i < TopK; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, col := range columns {
			row = append(row, col[i])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AlphaSweep measures how Personalized PageRank's hub leak grows with
// the damping factor α (experiment A8). The paper's Table I uses
// α=0.3 — a deliberately short walk; this sweep shows why: the
// probability mass landing on the globally central hubs rises with α,
// pushing them up the personalized ranking.
func AlphaSweep(ctx context.Context, dataset, source string, hubs []string) (*Table, error) {
	g, err := loadDataset(dataset)
	if err != nil {
		return nil, err
	}
	src, ok := g.NodeByLabel(source)
	if !ok {
		return nil, fmt.Errorf("experiments: source %q not in %s", source, dataset)
	}
	hubIDs := make([]graph.NodeID, 0, len(hubs))
	for _, h := range hubs {
		id, ok := g.NodeByLabel(h)
		if !ok {
			return nil, fmt.Errorf("experiments: hub %q not in %s", h, dataset)
		}
		hubIDs = append(hubIDs, id)
	}

	t := &Table{
		ID:      "ablation-alpha-sweep",
		Title:   fmt.Sprintf("PPR hub leak vs α on %s (source %q)", dataset, source),
		Headers: []string{"alpha", "hub mass", "hubs in top-5", "top-5"},
	}
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.95} {
		res, err := pagerank.Personalized(ctx, g, pagerank.Params{Alpha: alpha, Seeds: []graph.NodeID{src}})
		if err != nil {
			return nil, err
		}
		var hubMass float64
		for _, id := range hubIDs {
			hubMass += res.Score(id)
		}
		top := res.TopLabels(TopK)
		inTop := 0
		for _, l := range top {
			for _, h := range hubs {
				if l == h {
					inTop++
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", alpha),
			fmt.Sprintf("%.4f", hubMass),
			fmt.Sprintf("%d", inTop),
			strings.Join(top, "; "),
		})
	}
	return t, nil
}

// Agreement quantifies the demo's side-by-side comparison view
// (experiment A6): pairwise rank agreement between all personalized
// algorithms on the Table I query.
func Agreement(ctx context.Context, reg *algo.Registry) (*Table, error) {
	g, err := loadDataset("enwiki-2018")
	if err != nil {
		return nil, err
	}
	names := []string{algo.NameCycleRank, algo.NamePPR, algo.NamePCheiRank, algo.NameP2DRank}
	results := make(map[string]*ranking.Result, len(names))
	for _, n := range names {
		p := algo.Params{Source: "Freddie Mercury", Alpha: 0.85, K: 3}
		res, err := algo.Run(ctx, reg, n, g, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", n, err)
		}
		results[n] = res
	}
	t := &Table{
		ID:      "ablation-agreement",
		Title:   "Pairwise rank agreement on enwiki-2018 (Freddie Mercury), depth 10",
		Headers: []string{"pair", "Jaccard@10", "RBO(p=0.9)", "Kendall τ", "footrule"},
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			ag, err := ranking.CompareAt(results[names[i]], results[names[j]], 10)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				names[i] + " vs " + names[j],
				fmt.Sprintf("%.3f", ag.Jaccard),
				fmt.Sprintf("%.3f", ag.RBO),
				fmt.Sprintf("%.3f", ag.KendallTau),
				fmt.Sprintf("%.3f", ag.Footrule),
			})
		}
	}
	return t, nil
}
