package server

import (
	"context"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/traffic"
)

// TrafficStatus is the workload-learning snapshot, the "traffic" row
// of /api/status. Enabled false means Config.TrafficTopK was negative
// and no sketch exists this boot.
type TrafficStatus struct {
	Enabled bool `json:"enabled"`
	// Restored reports whether this boot's sketch decoded from a
	// previous process's artifact (false: cold start, or the artifact
	// was corrupt and cost its warmth).
	Restored bool `json:"restored"`
	// Recorded counts warmable artifact keys observed since the
	// sketch was created (survives restarts via the artifact).
	Recorded uint64 `json:"recorded"`
	// Tracked counts heavy-hitter keys currently held exactly.
	Tracked int `json:"tracked"`
	// TopK is the heavy-hitter capacity.
	TopK int `json:"top_k"`
	// Saves / SaveErrors count sketch persistence attempts.
	Saves      int64 `json:"saves"`
	SaveErrors int64 `json:"save_errors"`
	// Pinned counts artifacts the learned pre-warm pinned against
	// the sweeper this boot.
	Pinned int `json:"pinned"`
	// DecayEpoch counts halvings applied to the sketch over its
	// LIFETIME (it survives restarts via the artifact); Decays counts
	// the halvings THIS process applied.
	DecayEpoch uint64 `json:"decay_epoch"`
	Decays     int64  `json:"decays"`
}

// trafficState tracks the sketch's persistence and the artifact pins
// the learned pre-warm produced, backing the "traffic" status row and
// its metric families.
type trafficState struct {
	restored bool

	saves      *obs.Counter
	saveErrors *obs.Counter
	decays     *obs.Counter

	pinMu sync.Mutex
	pins  map[string]bool
}

func (t *trafficState) init(sk *traffic.Sketch, reg *obs.Registry) {
	t.pins = make(map[string]bool)
	t.saves = reg.Counter("cyclerank_traffic_sketch_saves_total",
		"Traffic-sketch artifacts persisted (periodic + on close).")
	t.saveErrors = reg.Counter("cyclerank_traffic_sketch_save_errors_total",
		"Traffic-sketch persistence attempts that failed.")
	t.decays = reg.Counter("cyclerank_traffic_decays_total",
		"Traffic-sketch halvings applied by this process's decayer.")
	reg.GaugeFunc("cyclerank_traffic_decay_epoch",
		"Halvings applied to the traffic sketch over its lifetime (persists across restarts).",
		func() float64 {
			if sk == nil {
				return 0
			}
			return float64(sk.Stats().DecayEpoch)
		})
	reg.GaugeFunc("cyclerank_traffic_recorded_queries",
		"Warmable artifact keys recorded in the traffic sketch (lifetime).",
		func() float64 {
			if sk == nil {
				return 0
			}
			return float64(sk.Stats().Recorded)
		})
	reg.GaugeFunc("cyclerank_traffic_tracked_keys",
		"Heavy-hitter keys the traffic sketch tracks exactly.",
		func() float64 {
			if sk == nil {
				return 0
			}
			return float64(sk.Stats().Tracked)
		})
	reg.GaugeFunc("cyclerank_traffic_pinned_artifacts",
		"Artifacts the learned pre-warm pinned against the sweeper.",
		func() float64 {
			t.pinMu.Lock()
			defer t.pinMu.Unlock()
			return float64(len(t.pins))
		})
}

// pin marks a store-relative artifact path as sweep-exempt.
func (t *trafficState) pin(relPath string) {
	t.pinMu.Lock()
	t.pins[relPath] = true
	t.pinMu.Unlock()
}

// pinnedPaths snapshots the pin set for one sweep pass.
func (t *trafficState) pinnedPaths() map[string]bool {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	if len(t.pins) == 0 {
		return nil
	}
	out := make(map[string]bool, len(t.pins))
	for p := range t.pins {
		out[p] = true
	}
	return out
}

func (t *trafficState) pinCount() int {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	return len(t.pins)
}

func (s *Server) trafficStatus() TrafficStatus {
	st := TrafficStatus{
		Enabled:    s.traffic != nil,
		Restored:   s.trafficState.restored,
		Saves:      s.trafficState.saves.Value(),
		SaveErrors: s.trafficState.saveErrors.Value(),
		Pinned:     s.trafficState.pinCount(),
		Decays:     s.trafficState.decays.Value(),
	}
	if s.traffic != nil {
		sk := s.traffic.Stats()
		st.Recorded = sk.Recorded
		st.Tracked = sk.Tracked
		st.TopK = sk.TopK
		st.DecayEpoch = sk.DecayEpoch
	}
	return st
}

// trafficSaveInterval paces the sketch's periodic persistence. The
// sketch is a few hundred KiB and the write is atomic, so losing one
// interval of counts to a crash is the worst case. A variable so
// tests can tighten it.
var trafficSaveInterval = 30 * time.Second

// runTrafficSaver persists the workload sketch periodically and once
// more on shutdown, so the traffic observed this boot informs the
// next boot's learned pre-warm.
func (s *Server) runTrafficSaver(ctx context.Context) {
	defer s.lifeWG.Done()
	ticker := time.NewTicker(trafficSaveInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			s.saveTraffic()
			return
		case <-ticker.C:
			s.saveTraffic()
		}
	}
}

func (s *Server) saveTraffic() {
	if s.traffic == nil {
		return
	}
	if err := s.store.SaveTrafficSketch(s.traffic.Encode()); err != nil {
		s.trafficState.saveErrors.Inc()
		return
	}
	s.trafficState.saves.Inc()
}

// runTrafficDecayer halves the workload sketch every half-life, so a
// formerly-hot key that traffic moved away from ages out of the
// heavy-hitter table — and therefore out of the next boot's pre-warm
// pin set — instead of staying pinned on stale counts forever. The
// decayed state reaches disk through the regular saver; the decay
// epoch rides in the artifact so restarts never replay or skip
// halvings.
func (s *Server) runTrafficDecayer(ctx context.Context, halfLife time.Duration) {
	defer s.lifeWG.Done()
	ticker := time.NewTicker(halfLife)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.traffic.Decay()
			s.trafficState.decays.Inc()
		}
	}
}

// learnedPrewarm warms the artifacts behind the sketch's heavy
// hitters — the keys real traffic demanded most — at the EXACT
// parameters the queries used, then pins them against the artifact
// sweeper: a cap-pressured sweep may reap cold artifacts, never the
// ones the observed workload is about to ask for again. Runs as the
// second phase of the startup pre-warm, after the suggested-source
// phase (catalog knowledge first, learned knowledge on top).
//
// Unparseable keys (future formats), vanished datasets and
// unresolvable labels are each skipped and counted, never fatal —
// the sketch describes a past workload the present deployment may no
// longer match.
func (s *Server) learnedPrewarm(ctx context.Context) {
	if s.traffic == nil {
		return
	}
	top := s.traffic.TopK()
	s.prewarm.learnedKeys.Set(float64(len(top)))
	// Fingerprints are memoized per loaded graph for the pin paths;
	// the graphs themselves come from the scheduler's dataset cache.
	fps := make(map[string]string)
	for _, kc := range top {
		if ctx.Err() != nil {
			return
		}
		k, err := traffic.ParseWarmKey(kc.Key)
		if err != nil {
			s.prewarm.learnedErrors.Inc()
			continue
		}
		g, err := s.scheduler.LoadGraph(k.Dataset)
		if err != nil {
			s.prewarm.learnedErrors.Inc()
			continue
		}
		node, ok := g.NodeByLabel(k.Node)
		if !ok {
			s.prewarm.learnedErrors.Inc()
			continue
		}
		fp, ok := fps[k.Dataset]
		if !ok {
			fp = graph.Fingerprint(g)
			fps[k.Dataset] = fp
		}
		switch k.Kind {
		case traffic.KindIndex:
			if _, err := s.warmIndex(ctx, g, node, k.Alpha, k.RMax); err != nil {
				s.prewarm.learnedErrors.Inc()
				continue
			}
			s.trafficState.pin("indexes/" + fp + "/" +
				bippr.IndexFileKey(node, k.Alpha, k.RMax) + ".idx")
		case traffic.KindEndpoints:
			p := bippr.Params{Alpha: k.Alpha, Seed: k.Seed,
				MaxSteps: k.MaxSteps, Walks: k.Walks}.WithDefaults()
			if _, err := s.warmEndpoints(ctx, g, node, p); err != nil {
				s.prewarm.learnedErrors.Inc()
				continue
			}
			s.trafficState.pin("endpoints/" + fp + "/" +
				bippr.EndpointFileKey(node, p.Alpha, p.Seed, p.MaxSteps, p.Walks) + ".ep")
		default:
			s.prewarm.learnedErrors.Inc()
			continue
		}
		s.prewarm.learnedWarmed.Inc()
	}
}
