package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// Validation cadence and tolerances.
const (
	// referenceEvery: every referenceEvery-th measured operation is
	// recomputed in-process and compared with what the server served.
	referenceEvery = 50
	// servedTopK is the scheduler's default result depth.
	servedTopK = 50
	// scoreTol bounds served-vs-recomputed score differences; every
	// engine here is deterministic, so agreement is near bit-exact.
	scoreTol = 1e-9
	// pairSamples pair-warm results are checked against an exact
	// power-iteration oracle after the run.
	pairSamples = 20
)

// validateView is the per-operation structural check: terminal done,
// the expected task count, and for every task a non-empty top list of
// finite scores in descending order whose labels resolve.
func validateView(o op, v compareView, resolvable func(label string) bool) error {
	if len(v.Tasks) != len(o.Tasks) {
		return fmt.Errorf("%d tasks in the result, submitted %d", len(v.Tasks), len(o.Tasks))
	}
	for i, t := range v.Tasks {
		name := o.Tasks[i].Algorithm
		if t.Task.State != task.StateDone {
			return fmt.Errorf("task %d (%s): state %s: %s", i, name, t.Task.State, t.Task.Error)
		}
		if t.Result == nil || len(t.Result.Top) == 0 {
			return fmt.Errorf("task %d (%s): empty top list", i, name)
		}
		prev := math.Inf(1)
		for j, e := range t.Result.Top {
			if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score <= 0 {
				return fmt.Errorf("task %d (%s): entry %d has score %v", i, name, j, e.Score)
			}
			if e.Score > prev {
				return fmt.Errorf("task %d (%s): entry %d breaks descending order", i, name, j)
			}
			prev = e.Score
			if !resolvable(e.Label) {
				return fmt.Errorf("task %d (%s): entry %d label %q does not resolve", i, name, j, e.Label)
			}
		}
	}
	return nil
}

// resolver returns the label check for an op: membership in the
// catalog graph, or the n<id> pattern of the op's own upload.
func (r *refs) resolver(o op) (func(string) bool, error) {
	if o.Upload != nil {
		return func(label string) bool {
			id, ok := strings.CutPrefix(label, "n")
			n, err := strconv.Atoi(id)
			return ok && err == nil && n >= 0 && n < uploadNodes
		}, nil
	}
	g, err := r.graph(o.Tasks[0].Dataset)
	if err != nil {
		return nil, err
	}
	return func(label string) bool {
		_, ok := g.NodeByLabel(label)
		return ok
	}, nil
}

// checkReference recomputes every task of an op with a direct
// in-process algo.Run and compares the served top list with it: the
// same labels in the same order, scores within scoreTol.
func checkReference(r *refs, o op, v compareView) error {
	g, err := r.opGraph(o)
	if err != nil {
		return err
	}
	for i, spec := range o.Tasks {
		res, err := algo.Run(context.Background(), r.registry, spec.Algorithm, g, spec.Params)
		if err != nil {
			return fmt.Errorf("reference %s: %w", spec.Algorithm, err)
		}
		want := res.Top(servedTopK)
		got := v.Tasks[i].Result.Top
		if len(got) != len(want) {
			return fmt.Errorf("task %d (%s): served %d entries, reference has %d", i, spec.Algorithm, len(got), len(want))
		}
		for j := range want {
			if got[j].Label != want[j].Label {
				return fmt.Errorf("task %d (%s): entry %d is %q, reference says %q", i, spec.Algorithm, j, got[j].Label, want[j].Label)
			}
			if math.Abs(got[j].Score-want[j].Score) > scoreTol {
				return fmt.Errorf("task %d (%s): entry %d score %v, reference %v", i, spec.Algorithm, j, got[j].Score, want[j].Score)
			}
		}
	}
	return nil
}

// pairErrorBound is the documented accuracy of a bippr-pair estimate.
// The reverse-push invariant π(s,t) = p_t(s) + Σ_v π(s,v)·r_t(v) is
// exact, so the only error is the Monte-Carlo walk term: walks
// samples in [0, rmax), hence below rmax outright and, by Hoeffding,
// below rmax·sqrt(ln(2/δ)/(2·walks)) with probability 1−δ. δ is 1e-6
// per sample; the seeds are fixed, so a pass is a pass on every run.
func pairErrorBound(rmax float64, walks int) float64 {
	const delta = 1e-6
	return math.Min(rmax, rmax*math.Sqrt(math.Log(2/delta)/(2*float64(walks)))) + scoreTol
}

// absorbingPPR converts the power-iteration engine's π(s,·) to bippr's
// dangling convention. pagerank.Personalized restarts a walk that
// would leave a dangling node at the seed; bippr absorbs it (see
// docs/ARCHITECTURE.md, "Dangling convention"). A walk from s
// restarts R = α/(1−α)·Σ_{d dangling} π(s,d) times on average, and
// every restart is a fresh walk from s, so π_restart = (1+R)·π_absorb.
func absorbingPPR(g *graph.Graph, scores []float64, alpha float64, t graph.NodeID) float64 {
	var dangling float64
	for _, d := range g.DanglingNodes() {
		dangling += scores[d]
	}
	return scores[t] / (1 + alpha/(1-alpha)*dangling)
}

// checkPairAccuracy compares one served bippr-pair score with the
// exact π(s,t) of a tol-1e-12 power iteration — the cross-engine
// agreement the paper's comparison rests on.
func checkPairAccuracy(r *refs, spec task.Spec, served float64) error {
	g, err := r.graph(spec.Dataset)
	if err != nil {
		return err
	}
	s, err := spec.Params.ResolveSource(g)
	if err != nil {
		return err
	}
	t, err := spec.Params.ResolveTarget(g)
	if err != nil {
		return err
	}
	res, err := pagerank.Personalized(context.Background(), g, pagerank.Params{
		Alpha: pagerank.DefaultAlpha, Tol: 1e-12, MaxIter: 10000, Seeds: []graph.NodeID{s},
	})
	if err != nil {
		return err
	}
	exact := absorbingPPR(g, res.Scores, pagerank.DefaultAlpha, t)
	bound := pairErrorBound(spec.Params.RMax, spec.Params.Walks)
	if diff := math.Abs(served - exact); diff > bound {
		return fmt.Errorf("bippr-pair %q→%q: served %.6g, exact %.6g, off by %.3g > bound %.3g",
			spec.Params.Source, spec.Params.Target, served, exact, diff, bound)
	}
	return nil
}
