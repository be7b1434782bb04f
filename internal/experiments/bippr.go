package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
)

// TableIV extends the paper's comparison with the target-node
// workload the bidirectional subsystem opens: top-5 nodes by
// relevance TO a reference, side by side with the forward Personalized
// PageRank view FROM the same reference, on the Wikipedia and Amazon
// graphs. The asymmetry between the two columns of a pair is the
// point: who Freddie Mercury endorses differs from who endorses him.
func TableIV(ctx context.Context, reg *algo.Registry) (*Table, error) {
	refs := []struct {
		dataset string
		ref     string
	}{
		{"enwiki-2018", "Freddie Mercury"},
		{"amazon", "1984"},
	}
	t := &Table{
		ID:      "table-4",
		Title:   "Top-5 by relevance TO the reference (ppr-target, rmax=1e-5) vs FROM it (PPR, α=0.85)",
		Headers: []string{"#"},
	}
	columns := make([][]string, 0, 2*len(refs))
	for _, r := range refs {
		g, err := loadDataset(r.dataset)
		if err != nil {
			return nil, err
		}
		// Exclude the reference itself: its self-relevance dominates
		// both directions and carries no information.
		toRef, _, err := topN(ctx, reg, algo.NamePPRTarget, g,
			algo.Params{Target: r.ref, RMax: 1e-5}, TopK+1)
		if err != nil {
			return nil, err
		}
		fromRef, _, err := topN(ctx, reg, algo.NamePPR, g,
			algo.Params{Source: r.ref, Alpha: 0.85}, TopK+1)
		if err != nil {
			return nil, err
		}
		columns = append(columns,
			pad(dropLabel(toRef, r.ref, TopK), TopK),
			pad(dropLabel(fromRef, r.ref, TopK), TopK))
		t.Headers = append(t.Headers,
			fmt.Sprintf("to %s (%s)", r.ref, r.dataset),
			fmt.Sprintf("from %s (%s)", r.ref, r.dataset))
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

// BiPPRSweep quantifies the bidirectional pair estimator's
// accuracy/cost trade-off (experiment A7): for a fixed (source,
// target) pair, it sweeps the reverse-push threshold rmax and reports
// push cost, walk cost, the estimate's error against a
// high-precision forward push, and the per-query speedup over that
// forward computation.
func BiPPRSweep(ctx context.Context, dataset, source, target string, rmaxs []float64) (*Table, error) {
	g, err := loadDataset(dataset)
	if err != nil {
		return nil, err
	}
	src, ok := g.NodeByLabel(source)
	if !ok {
		return nil, fmt.Errorf("experiments: source %q not in %s", source, dataset)
	}
	tgt, ok := g.NodeByLabel(target)
	if !ok {
		return nil, fmt.Errorf("experiments: target %q not in %s", target, dataset)
	}
	if len(rmaxs) == 0 {
		rmaxs = []float64{1e-3, 1e-4, 1e-5, 1e-6}
	}

	// Ground truth: the full forward push at high precision, timed —
	// the cost a platform without the bidirectional subsystem pays for
	// one pair answer.
	var truth float64
	fwdDur, err := timed(func() error {
		res, err := pagerank.PushPPR(ctx, g, pagerank.PushParams{
			Alpha: 0.15, Epsilon: 1e-9, Seeds: []graph.NodeID{src},
		})
		if err != nil {
			return err
		}
		truth = res.Score(tgt)
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "ablation-bippr",
		Title: fmt.Sprintf("BiPPR accuracy/cost vs rmax for π(%q → %q) on %s; forward push baseline %s (π=%.3g)",
			source, target, dataset, fwdDur.Round(time.Microsecond), truth),
		Headers: []string{"rmax", "pushes", "walks", "estimate", "|error|", "time", "speedup"},
	}
	for _, rmax := range rmaxs {
		var est bippr.Estimate
		dur, err := timed(func() error {
			var err error
			est, err = bippr.Bidirectional(ctx, g, src, tgt, bippr.Params{RMax: rmax})
			return err
		})
		if err != nil {
			return nil, err
		}
		speedup := "-"
		if dur > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(fwdDur)/float64(dur))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", rmax),
			fmt.Sprintf("%d", est.Pushes),
			fmt.Sprintf("%d", est.Walks),
			fmt.Sprintf("%.6g", est.Value),
			fmt.Sprintf("%.2e", math.Abs(est.Value-truth)),
			dur.Round(time.Microsecond).String(),
			speedup,
		})
	}
	return t, nil
}
