package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
)

// BiPPRPersist quantifies what the two-tier persistent index store
// buys at each tier: the same target query is served cold (reverse
// push paid, artifact written), warm-from-disk (a fresh estimator
// over the same datastore — the restarted-server scenario —
// deserializes the artifact instead of pushing), and warm-from-memory
// (the LRU hit a long-running server sees). The disk row is the
// headline: it is the latency a restart costs once indexes persist,
// versus the cold row it used to cost.
func BiPPRPersist(ctx context.Context, dataset, target string, rmax float64) (*Table, error) {
	g, err := loadDataset(dataset)
	if err != nil {
		return nil, err
	}
	tgt, ok := g.NodeByLabel(target)
	if !ok {
		return nil, fmt.Errorf("experiments: target %q not in %s", target, dataset)
	}
	if rmax == 0 {
		rmax = 1e-5
	}
	dir, err := os.MkdirTemp("", "bippr-persist-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer os.RemoveAll(dir)
	store, err := datastore.Open(dir)
	if err != nil {
		return nil, err
	}

	p := bippr.Params{RMax: rmax}
	query := func(est *bippr.Estimator) (time.Duration, error) {
		return timed(func() error {
			_, err := est.TargetRank(ctx, g, tgt, p)
			return err
		})
	}

	// Cold: empty datastore, fresh process. Pays the push and writes
	// the artifact.
	cold := bippr.NewEstimatorWithCaches(bippr.NewTieredStore(0, store), nil)
	coldDur, err := query(cold)
	if err != nil {
		return nil, err
	}
	// Warm disk: a *new* estimator over the same datastore — the
	// restarted server. Zero reverse-push work; pays deserialization.
	restarted := bippr.NewEstimatorWithCaches(bippr.NewTieredStore(0, store), nil)
	diskDur, err := query(restarted)
	if err != nil {
		return nil, err
	}
	// Warm memory: the same estimator again — the steady state.
	memDur, err := query(restarted)
	if err != nil {
		return nil, err
	}
	stats := restarted.StoreStats()
	if stats.DiskHits != 1 || stats.Misses != 0 {
		return nil, fmt.Errorf("experiments: restarted store expected exactly one disk hit and no recompute, got %+v", stats)
	}
	files, bytes, err := store.IndexUsage()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "ablation-bippr-persist",
		Title: fmt.Sprintf("Persistent index store for target %q on %s (rmax=%.0e; %d artifact(s), %d bytes on disk)",
			target, dataset, rmax, files, bytes),
		Headers: []string{"tier", "scenario", "time", "speedup vs cold"},
	}
	for _, row := range []struct {
		tier, scenario string
		dur            time.Duration
	}{
		{bippr.TierComputed.String(), "first query ever (reverse push + persist)", coldDur},
		{bippr.TierDisk.String(), "first query after restart (artifact load)", diskDur},
		{bippr.TierMemory.String(), "steady state (LRU hit)", memDur},
	} {
		speedup := "-"
		if row.dur > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(coldDur)/float64(row.dur))
		}
		t.Rows = append(t.Rows, []string{
			row.tier, row.scenario, row.dur.Round(time.Microsecond).String(), speedup,
		})
	}
	return t, nil
}
