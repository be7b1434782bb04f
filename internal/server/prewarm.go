package server

import (
	"context"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// PrewarmStatus is the startup pre-warm task's progress snapshot, the
// "prewarm" row of /api/status. States: "disabled" (Config.PreWarm
// off), "running", "done", "cancelled" (the server was closed
// mid-warm).
type PrewarmStatus struct {
	State string `json:"state"`
	// DatasetsTotal / DatasetsDone count catalog datasets with
	// suggested reference nodes.
	DatasetsTotal int `json:"datasets_total"`
	DatasetsDone  int `json:"datasets_done"`
	// NodesTotal / NodesDone count suggested reference nodes; each
	// warms one reverse-push index and one walk-endpoint recording.
	NodesTotal int `json:"nodes_total"`
	NodesDone  int `json:"nodes_done"`
	// IndexesWarm counts indexes found already warm (persisted by a
	// previous process, or raced into the cache by an early query);
	// IndexesComputed counts reverse pushes the pre-warm paid — and
	// persisted, so the NEXT restart's pre-warm only deserializes.
	IndexesWarm     int `json:"indexes_warm"`
	IndexesComputed int `json:"indexes_computed"`
	// EndpointsWarm / EndpointsRecorded are the same split for
	// walk-endpoint recordings.
	EndpointsWarm     int `json:"endpoints_warm"`
	EndpointsRecorded int `json:"endpoints_recorded"`
	// Errors counts nodes that failed to warm (load failures,
	// unresolvable labels); each is skipped, never fatal.
	Errors int `json:"errors"`
}

// prewarmState backs the "prewarm" status row with obs metrics: the
// counters ARE the registry series the /metrics scrape exports, and
// snapshot() assembles the legacy JSON shape from the same values —
// the two views cannot drift. Only the state string stays a plain
// mutex-guarded field (Prometheus has no string samples).
type prewarmState struct {
	mu    sync.Mutex
	state string

	datasetsTotal, nodesTotal *obs.Gauge
	datasetsDone, nodesDone   *obs.Counter
	indexesWarm, indexesComputed,
	endpointsWarm, endpointsRecorded *obs.Counter
	errors *obs.Counter
}

func (p *prewarmState) init(enabled bool, reg *obs.Registry) {
	p.datasetsTotal = reg.Gauge("cyclerank_prewarm_datasets",
		"Catalog datasets the startup pre-warm covers.")
	p.nodesTotal = reg.Gauge("cyclerank_prewarm_nodes",
		"Suggested reference nodes the startup pre-warm covers.")
	p.datasetsDone = reg.Counter("cyclerank_prewarm_datasets_done_total",
		"Datasets the pre-warm finished (including skipped ones).")
	p.nodesDone = reg.Counter("cyclerank_prewarm_nodes_done_total",
		"Reference nodes the pre-warm finished (including failed ones).")
	p.indexesWarm = reg.Counter("cyclerank_prewarm_indexes_total",
		"Reverse-push indexes touched by the pre-warm, by outcome.", "outcome", "warm")
	p.indexesComputed = reg.Counter("cyclerank_prewarm_indexes_total",
		"Reverse-push indexes touched by the pre-warm, by outcome.", "outcome", "computed")
	p.endpointsWarm = reg.Counter("cyclerank_prewarm_endpoints_total",
		"Walk-endpoint recordings touched by the pre-warm, by outcome.", "outcome", "warm")
	p.endpointsRecorded = reg.Counter("cyclerank_prewarm_endpoints_total",
		"Walk-endpoint recordings touched by the pre-warm, by outcome.", "outcome", "recorded")
	p.errors = reg.Counter("cyclerank_prewarm_errors_total",
		"Nodes that failed to warm (load failures, unresolvable labels).")
	p.mu.Lock()
	defer p.mu.Unlock()
	if enabled {
		p.state = "running"
	} else {
		p.state = "disabled"
	}
}

func (p *prewarmState) setTotals(datasets, nodes int) {
	p.datasetsTotal.Set(float64(datasets))
	p.nodesTotal.Set(float64(nodes))
}

func (p *prewarmState) setState(state string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state = state
}

func (p *prewarmState) snapshot() PrewarmStatus {
	p.mu.Lock()
	state := p.state
	p.mu.Unlock()
	return PrewarmStatus{
		State:             state,
		DatasetsTotal:     int(p.datasetsTotal.Value()),
		DatasetsDone:      int(p.datasetsDone.Value()),
		NodesTotal:        int(p.nodesTotal.Value()),
		NodesDone:         int(p.nodesDone.Value()),
		IndexesWarm:       int(p.indexesWarm.Value()),
		IndexesComputed:   int(p.indexesComputed.Value()),
		EndpointsWarm:     int(p.endpointsWarm.Value()),
		EndpointsRecorded: int(p.endpointsRecorded.Value()),
		Errors:            int(p.errors.Value()),
	}
}

// runPrewarm is the startup pre-warm task: for every catalog dataset
// with suggested reference nodes it warms, per node, the reverse-push
// target index and the walk-endpoint recording at default query
// parameters — exactly the keys a default target or walk-reuse pair
// query will look up. Warm artifacts persisted by a previous process
// deserialize; cold ones are computed once and persisted through the
// caches' disk tiers (see warmIndex), so the work compounds across
// restarts. The graph loads share the scheduler's dataset cache, so
// pre-warmed memory-tier entries are keyed by the same *Graph pointer
// later queries use.
//
// Cancellation (server Close) is honored between nodes and inside
// every push and walk pass; artifact writes are atomic, so a cancel
// mid-warm leaves no partial files.
func (s *Server) runPrewarm(ctx context.Context) {
	defer s.lifeWG.Done()
	p := bippr.Params{}.WithDefaults()

	type job struct {
		dataset string
		sources []string
	}
	var jobs []job
	nodes := 0
	for _, d := range s.catalog.All() {
		if len(d.SuggestedSources) > 0 {
			jobs = append(jobs, job{dataset: d.Name, sources: d.SuggestedSources})
			nodes += len(d.SuggestedSources)
		}
	}
	s.prewarm.setTotals(len(jobs), nodes)

	cancelled := func() bool { return ctx.Err() != nil }
	for _, j := range jobs {
		if cancelled() {
			s.prewarm.setState("cancelled")
			return
		}
		g, err := s.scheduler.LoadGraph(j.dataset)
		if err != nil {
			s.prewarm.errors.Add(int64(len(j.sources)))
			s.prewarm.nodesDone.Add(int64(len(j.sources)))
			s.prewarm.datasetsDone.Inc()
			continue
		}
		for _, label := range j.sources {
			if cancelled() {
				s.prewarm.setState("cancelled")
				return
			}
			node, ok := g.NodeByLabel(label)
			if !ok {
				s.prewarm.errors.Inc()
				s.prewarm.nodesDone.Inc()
				continue
			}
			tier, err := s.warmIndex(ctx, g, node, p.Alpha, p.RMax)
			warm, eErr := s.warmEndpoints(ctx, g, node, p)
			s.prewarm.nodesDone.Inc()
			if err != nil || eErr != nil {
				s.prewarm.errors.Inc()
			}
			if err == nil {
				if tier != bippr.TierComputed {
					s.prewarm.indexesWarm.Inc()
				} else {
					s.prewarm.indexesComputed.Inc()
				}
			}
			if eErr == nil {
				if warm {
					s.prewarm.endpointsWarm.Inc()
				} else {
					s.prewarm.endpointsRecorded.Inc()
				}
			}
		}
		s.prewarm.datasetsDone.Inc()
	}
	if cancelled() {
		s.prewarm.setState("cancelled")
	} else {
		s.prewarm.setState("done")
	}
}

// warmIndex resolves one target index for the pre-warm. The artifact
// cache persists a key on its second touch, and a pre-warmed key is
// declared demand, so a lookup that computed is followed by a second
// one: that memory hit writes the artifact, and the next boot's
// pre-warm only deserializes it.
func (s *Server) warmIndex(ctx context.Context, g *graph.Graph, node graph.NodeID, alpha, rmax float64) (bippr.Tier, error) {
	get := func() (bippr.Tier, error) {
		_, tier, err := s.indexStore.GetOrCompute(ctx, g, node, alpha, rmax,
			func() (*bippr.TargetIndex, error) {
				return bippr.ReversePush(ctx, g, node, alpha, rmax)
			})
		return tier, err
	}
	tier, err := get()
	if err == nil && tier == bippr.TierComputed {
		_, err = get()
	}
	return tier, err
}

// warmEndpoints is warmIndex for a walk-endpoint recording; warm
// reports that the first lookup did not record.
func (s *Server) warmEndpoints(ctx context.Context, g *graph.Graph, node graph.NodeID, p bippr.Params) (warm bool, err error) {
	get := func() (bool, error) {
		_, cached, err := s.endpoints.GetOrRecord(ctx, g, node, p,
			func() (*bippr.EndpointSet, error) {
				w := bippr.NewWalkEstimator(g, p.Alpha, p.Seed, p.MaxSteps)
				return w.Endpoints(ctx, node, p.Walks, p.Workers)
			})
		return cached, err
	}
	warm, err = get()
	if err == nil && !warm {
		_, err = get()
	}
	return warm, err
}

// GCStatus is the artifact sweeper's snapshot, the "artifact_gc" row
// of /api/status. CapBytes 0 reports the sweeper as disabled.
type GCStatus struct {
	CapBytes int64 `json:"cap_bytes"`
	// Sweeps counts completed sweep passes.
	Sweeps int64 `json:"sweeps"`
	// LastSweep is the most recent pass's outcome: artifacts
	// remaining and reaped.
	LastSweep datastore.SweepStats `json:"last_sweep"`
}

// gcState backs the "artifact_gc" status row with obs metrics, like
// prewarmState: the sweep counter and residency gauges live in the
// server registry, and the JSON snapshot reads the same values. The
// cumulative reaped counters outlive LastSweep, which only keeps the
// most recent pass.
type gcState struct {
	mu   sync.Mutex
	last datastore.SweepStats

	capBytes       *obs.Gauge
	sweeps         *obs.Counter
	reapedFiles    *obs.Counter
	reapedBytes    *obs.Counter
	remainingFiles *obs.Gauge
	remainingBytes *obs.Gauge
}

func (g *gcState) init(capBytes int64, reg *obs.Registry) {
	g.capBytes = reg.Gauge("cyclerank_artifact_gc_cap_bytes",
		"Size cap on persisted derived artifacts (0 = sweeper disabled).")
	g.sweeps = reg.Counter("cyclerank_artifact_gc_sweeps_total",
		"Completed artifact sweep passes.")
	g.reapedFiles = reg.Counter("cyclerank_artifact_gc_reaped_files_total",
		"Artifacts removed by the sweeper since startup.")
	g.reapedBytes = reg.Counter("cyclerank_artifact_gc_reaped_bytes_total",
		"Bytes reclaimed by the sweeper since startup.")
	g.remainingFiles = reg.Gauge("cyclerank_artifact_gc_remaining_files",
		"Artifacts remaining after the most recent sweep.")
	g.remainingBytes = reg.Gauge("cyclerank_artifact_gc_remaining_bytes",
		"Artifact bytes remaining after the most recent sweep.")
	g.capBytes.Set(float64(capBytes))
}

func (g *gcState) record(st datastore.SweepStats) {
	g.sweeps.Inc()
	g.reapedFiles.Add(int64(st.Reaped))
	g.reapedBytes.Add(st.ReapedBytes)
	g.remainingFiles.Set(float64(st.Files))
	g.remainingBytes.Set(float64(st.Bytes))
	g.mu.Lock()
	g.last = st
	g.mu.Unlock()
}

func (g *gcState) snapshot() GCStatus {
	g.mu.Lock()
	last := g.last
	g.mu.Unlock()
	return GCStatus{
		CapBytes:  int64(g.capBytes.Value()),
		Sweeps:    g.sweeps.Value(),
		LastSweep: last,
	}
}

// artifactSweepInterval paces the background GC: one pass at startup
// (reclaiming whatever a previous process left over the cap), then
// one per interval. Sweeps are cheap — one readdir walk per artifact
// kind — but there is no reason to run them hot. A variable so tests
// can tighten it.
var artifactSweepInterval = time.Minute

// runSweeper enforces the artifact cap in the background.
func (s *Server) runSweeper(ctx context.Context, capBytes int64) {
	defer s.lifeWG.Done()
	ticker := time.NewTicker(artifactSweepInterval)
	defer ticker.Stop()
	for {
		// Sweep failures are not fatal: the next tick retries, and the
		// stats keep reporting the last successful pass.
		if st, err := s.store.SweepArtifacts(capBytes); err == nil {
			s.gc.record(st)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
