package task

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// TestCostEstimatorMonotone locks the cost model's shape: walk cost is
// monotone in the walk count, push cost is antitone in rmax — the two
// directions the Lofgren balance point trades against each other. A
// model violating either would price cheap requests above expensive
// ones.
func TestCostEstimatorMonotone(t *testing.T) {
	st := CostStats{Nodes: 10_000, Edges: 80_000}

	// Monotone in walks (explicit counts; eps-derived counts follow
	// their own Hoeffding shape and are not part of this property).
	for _, alg := range []string{"bippr-pair", "ppr-mc"} {
		prev := 0.0
		for _, walks := range []int{100, 1_000, 10_000, 100_000, 1_000_000} {
			spec := Spec{Dataset: "d", Algorithm: alg,
				Params: algo.Params{Source: "s", Target: "t", Walks: walks}}
			c := EstimateCost(spec, st)
			if math.IsInf(c, 0) || math.IsNaN(c) || c <= 0 {
				t.Fatalf("%s walks=%d: cost %v not finite positive", alg, walks, c)
			}
			if c <= prev {
				t.Errorf("%s: cost(walks=%d) = %g not > cost of previous count (%g)",
					alg, walks, c, prev)
			}
			prev = c
		}
	}

	// Antitone in rmax: a looser residual threshold must never price
	// higher. Both push bounds (local and saturated) decrease in rmax,
	// so the min must too.
	for _, alg := range []string{"ppr-target", "bippr-pair"} {
		prev := math.Inf(1)
		for _, rmax := range []float64{1e-8, 1e-6, 1e-4, 1e-2} {
			spec := Spec{Dataset: "d", Algorithm: alg,
				Params: algo.Params{Source: "s", Target: "t", RMax: rmax, Walks: 500}}
			c := EstimateCost(spec, st)
			if c >= prev {
				t.Errorf("%s: cost(rmax=%g) = %g not < cost at tighter rmax (%g)",
					alg, rmax, c, prev)
			}
			prev = c
		}
	}

	// A batch prices as the sum of its parts (subqueries resolving the
	// top-level default algorithm).
	single := Spec{Dataset: "d", Algorithm: "bippr-pair",
		Params: algo.Params{Source: "s", Target: "t", Walks: 1000}}
	batch := Spec{Dataset: "d", Algorithm: "bippr-pair", Queries: []SubSpec{
		{Params: algo.Params{Source: "s", Target: "t", Walks: 1000}},
		{Params: algo.Params{Source: "s", Target: "u", Walks: 1000}},
		{Algorithm: "pagerank"},
	}}
	want := 2*EstimateCost(single, st) +
		EstimateCost(Spec{Dataset: "d", Algorithm: "pagerank"}, st)
	if got := EstimateCost(batch, st); math.Abs(got-want) > 1e-6*want {
		t.Errorf("batch cost %g, want sum of parts %g", got, want)
	}

	// Unknown datasets price from fallback stats: positive and finite,
	// never a free pass and never a poisoned backlog.
	for _, alg := range []string{"bippr-pair", "cyclerank", "pagerank", "2drank", "made-up"} {
		c := EstimateCost(Spec{Dataset: "ghost", Algorithm: alg,
			Params: algo.Params{Source: "s", Target: "t"}}, CostStats{})
		if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
			t.Errorf("%s on unknown dataset: cost %v", alg, c)
		}
	}

	// Larger graphs price push-bound and iteration-bound work higher.
	small, large := CostStats{Nodes: 100, Edges: 500}, CostStats{Nodes: 1_000_000, Edges: 10_000_000}
	pr := Spec{Dataset: "d", Algorithm: "pagerank"}
	if EstimateCost(pr, small) >= EstimateCost(pr, large) {
		t.Error("pagerank cost not increasing in graph size")
	}
}

// TestEstimateCostClampedFinite locks the stamp-time clamp: parameter
// corners that price to +Inf (non-positive rmax) come back as the
// finite MaxCostUnits ceiling, so the task document that carries the
// estimate always encodes.
func TestEstimateCostClampedFinite(t *testing.T) {
	inf := EstimateCost(Spec{Algorithm: "ppr-target", Params: algo.Params{Target: "t", RMax: -1}}, CostStats{})
	if math.IsInf(inf, 0) || math.IsNaN(inf) {
		t.Fatalf("EstimateCost leaked non-finite %v", inf)
	}
	if inf != MaxCostUnits {
		t.Errorf("clamped estimate %g, want MaxCostUnits", inf)
	}
	// Batch sums clamp too.
	batch := Spec{Dataset: "d", Algorithm: "ppr-target", Queries: []SubSpec{
		{Params: algo.Params{Target: "t", RMax: -1}},
		{Params: algo.Params{Target: "t", RMax: -1}},
	}}
	if got := EstimateCost(batch, CostStats{}); got != MaxCostUnits {
		t.Errorf("batch estimate %g, want MaxCostUnits", got)
	}
}

// TestEstimateVsActualWithinBand runs real bidirectional queries on
// two seed datasets and checks the cost model's units-per-millisecond
// rate lands in a generous band — and, more telling, that the rate is
// consistent across datasets (the model's job is ordering requests,
// not predicting milliseconds).
func TestEstimateVsActualWithinBand(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall-clock work")
	}
	complete, err := datasets.CompleteDigraph(50)
	if err != nil {
		t.Fatal(err)
	}
	er, err := datasets.ErdosRenyi(500, 0.05, 6)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"complete": complete, "er": er}
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(SchedulerConfig{
		Registry: algo.NewBuiltinRegistry(),
		Store:    store,
		Workers:  1,
		Load: func(name string) (*graph.Graph, error) {
			g, ok := graphs[name]
			if !ok {
				return nil, fmt.Errorf("no dataset %q", name)
			}
			return g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rates := make(map[string]float64)
	for name := range graphs {
		// Prime the graph-stats cache so the measured submission prices
		// from real node/edge counts, not cold-start fallbacks.
		qs, _, err := s.Submit([]Spec{{Dataset: name, Algorithm: "pagerank"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitQuerySet(ctx, qs); err != nil {
			t.Fatal(err)
		}

		qs, _, err = s.Submit([]Spec{{Dataset: name, Algorithm: "bippr-pair",
			Params: algo.Params{Source: "0", Target: "1", Walks: 500_000}}})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := s.WaitQuerySet(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		tk := tasks[0]
		if tk.State != StateDone {
			t.Fatalf("%s: task state %s: %s", name, tk.State, tk.Error)
		}
		if tk.EstimatedCost <= 0 {
			t.Fatalf("%s: estimated cost %g", name, tk.EstimatedCost)
		}
		runMS := float64(tk.RunMS)
		if runMS < 1 {
			runMS = 1
		}
		rate := tk.EstimatedCost / runMS
		rates[name] = rate
		t.Logf("%s: estimated %.3g units, ran %.0f ms -> %.3g units/ms",
			name, tk.EstimatedCost, runMS, rate)
	}

	// Absolute band: abstract units per millisecond on any plausible
	// hardware. Deliberately generous — the band catches a model that is
	// off by ORDERS of magnitude (wrong exponent, dropped term), not one
	// that mispredicts constants.
	for name, rate := range rates {
		if rate < 1e1 || rate > 1e9 {
			t.Errorf("%s: %.3g units/ms outside [1e1, 1e9]", name, rate)
		}
	}
	// Relative band: the SAME model constant should explain both
	// datasets within a few doublings — that is what makes the units
	// additive across a mixed backlog.
	r1, r2 := rates["complete"], rates["er"]
	if gap := math.Abs(math.Log2(r1 / r2)); gap > 12 {
		t.Errorf("units/ms differ by 2^%.1f across datasets (%.3g vs %.3g)", gap, r1, r2)
	}
}
