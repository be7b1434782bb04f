package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
)

// EndpointPersist quantifies what persisting walk-endpoint recordings
// buys a restarted server: the same warm-source pair query is served
// cold (walks simulated; an untimed repeat then persists both
// artifacts, as the caches write on a key's second touch), restarted WITHOUT the
// endpoint disk tier (the index deserializes but the walks re-run —
// what a restart cost before recordings persisted), restarted with
// both artifact tiers (everything deserializes; zero pushes, zero
// walk simulation), and warm-from-memory (the steady state). The
// estimate column must be identical on every row — recorded chunks
// fold through the same sorted-count summation fresh walks use — and
// the function errors out if it ever differs.
func EndpointPersist(ctx context.Context, dataset, source, target string, walks int) (*Table, error) {
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
	if walks == 0 {
		walks = 200000
	}
	dir, err := os.MkdirTemp("", "bippr-endpoint-persist-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer os.RemoveAll(dir)
	store, err := datastore.Open(dir)
	if err != nil {
		return nil, err
	}

	p := bippr.Params{RMax: 1e-4, Walks: walks, ReuseEndpoints: true}
	tiered := func() *bippr.Estimator {
		return bippr.NewEstimatorWithCaches(
			bippr.NewTieredStore(0, store), bippr.NewTieredEndpointCache(0, store))
	}
	query := func(est *bippr.Estimator) (bippr.Estimate, time.Duration, error) {
		var e bippr.Estimate
		dur, err := timed(func() error {
			var err error
			e, err = est.Pair(ctx, g, src, tgt, p)
			return err
		})
		return e, dur, err
	}

	// Cold: empty datastore, fresh process. Pays the push and the walk
	// pass; the repeat is the second touch that persists both artifacts.
	first := tiered()
	cold, coldDur, err := query(first)
	if err != nil {
		return nil, err
	}
	if _, _, err := query(first); err != nil {
		return nil, err
	}
	if s := first.EndpointStats(); s.DiskWrites != 1 {
		return nil, fmt.Errorf("experiments: repeated query expected to persist one recording, got %+v", s)
	}
	// Restart, endpoints memory-only: the pre-persistence world. The
	// index loads from disk but the walk pass re-simulates.
	noEP := bippr.NewEstimatorWithCaches(bippr.NewTieredStore(0, store), bippr.NewEndpointCache(0))
	rewalk, rewalkDur, err := query(noEP)
	if err != nil {
		return nil, err
	}
	// Restart with both tiers: the restarted-server scenario this
	// ablation is about. Zero pushes, zero walk simulation.
	restarted := tiered()
	warmDisk, diskDur, err := query(restarted)
	if err != nil {
		return nil, err
	}
	if s := restarted.EndpointStats(); s.DiskHits != 1 || s.Misses != 0 {
		return nil, fmt.Errorf("experiments: restarted endpoint cache expected exactly one disk hit and no walk pass, got %+v", s)
	}
	// Warm memory: the same estimator again — the steady state.
	warmMem, memDur, err := query(restarted)
	if err != nil {
		return nil, err
	}
	for name, e := range map[string]bippr.Estimate{
		"re-walk": rewalk, "warm-disk": warmDisk, "warm-memory": warmMem,
	} {
		if e.Value != cold.Value {
			return nil, fmt.Errorf("experiments: %s estimate %v differs from cold %v — persistence broke bit-identity",
				name, e.Value, cold.Value)
		}
	}
	files, bytes, err := store.EndpointUsage()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "ablation-endpoint-persist",
		Title: fmt.Sprintf("Persisted walk-endpoint recordings for π(%q→%q) on %s (%d walks; estimate %.3e; %d recording(s), %d bytes on disk)",
			source, target, dataset, walks, cold.Value, files, bytes),
		Headers: []string{"scenario", "walk pass", "time", "speedup vs re-walk"},
	}
	for _, row := range []struct {
		scenario, walkPass string
		dur                time.Duration
	}{
		{"first query ever (record)", "simulated", coldDur},
		{"restart, memory-only endpoint cache", "re-simulated", rewalkDur},
		{"restart, persisted recordings", "deserialized", diskDur},
		{"steady state (LRU hit)", "re-weighted", memDur},
	} {
		speedup := "-"
		if row.dur > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(rewalkDur)/float64(row.dur))
		}
		t.Rows = append(t.Rows, []string{
			row.scenario, row.walkPass, row.dur.Round(time.Microsecond).String(), speedup,
		})
	}
	return t, nil
}
