package server

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/task"
	"github.com/cyclerank/cyclerank-go/internal/traffic"
)

// bootControlServer opens a datastore over dir and boots a server for
// the control-loop tests. Catalog and store are filled in; the caller
// owns shutdown (sequential boots inside one test need explicit
// ordering that t.Cleanup cannot express).
func bootControlServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = catalog
	cfg.Store = store
	if cfg.Registry == nil {
		cfg.Registry = algo.NewBuiltinRegistry()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s)
}

func closeBoot(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Scheduler().Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestControlLoopCalibrationConverges closes acceptance point (a): the
// EWMA calibrator learns a real units/ms rate from completed tasks, the
// learned rate turns the next submission's abstract units into a
// milliseconds prediction inside a logged sanity band of the measured
// run time, and the calibration survives a restart via the traffic
// sketch artifact.
func TestControlLoopCalibrationConverges(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := bootControlServer(t, dir, Config{})

	// Feed the calibrator: identical bidirectional queries, so the
	// family rate converges on this machine's actual speed for them.
	const warmupRuns = 6
	for i := 0; i < warmupRuns; i++ {
		runOneTask(t, ts1)
	}
	cal := s1.Scheduler().CalibrationSnapshot()
	learned, ok := cal[task.FamilyBidirectional]
	if !ok || learned.Observations != warmupRuns || !(learned.UnitsPerMS > 0) {
		t.Fatalf("calibration after %d runs: %+v", warmupRuns, cal)
	}
	t.Logf("learned %s rate: %.0f units/ms over %d observations",
		task.FamilyBidirectional, learned.UnitsPerMS, learned.Observations)

	// The next task's prediction is made from the learned rate at
	// submit time; compare it against what actually happened. The band
	// is deliberately wide — CI machines jitter — but a fallback-rate
	// prediction or a truncation-poisoned rate lands far outside it.
	id := runOneTask(t, ts1)
	var tv taskView
	getJSON(t, ts1.URL+"/api/tasks/"+id, &tv)
	if tv.Task.PredictedMS <= 0 || tv.Task.CostFamily != task.FamilyBidirectional {
		t.Fatalf("task not stamped with prediction: family %q predicted_ms %v",
			tv.Task.CostFamily, tv.Task.PredictedMS)
	}
	actualMS := tv.Task.Finished.Sub(tv.Task.Started).Seconds() * 1e3
	ratio := tv.Task.PredictedMS / actualMS
	t.Logf("predicted %.3fms, measured %.3fms, ratio %.2f", tv.Task.PredictedMS, actualMS, ratio)
	if ratio < 0.02 || ratio > 50 {
		t.Errorf("prediction ratio %.3f outside sanity band [0.02, 50]", ratio)
	}

	closeBoot(t, s1, ts1) // final save persists calibration in the sketch

	// Boot 2 over the same datastore: the calibrator must be seeded
	// from the artifact BEFORE any task runs.
	s2, ts2 := bootControlServer(t, dir, Config{})
	defer closeBoot(t, s2, ts2)
	restored := s2.Scheduler().CalibrationSnapshot()
	got, ok := restored[task.FamilyBidirectional]
	if !ok || got.Observations < uint64(warmupRuns) || !(got.UnitsPerMS > 0) {
		t.Fatalf("boot 2 calibration not restored: %+v", restored)
	}
	// And the serving row surfaces it.
	var st statusResponse
	getJSON(t, ts2.URL+"/api/status", &st)
	if st.Serving.Calibration[task.FamilyBidirectional].Observations < uint64(warmupRuns) {
		t.Errorf("serving row calibration missing: %+v", st.Serving.Calibration)
	}
}

// TestControlLoopSLOShedEndToEnd closes acceptance point (b): when the
// interactive p99 breaches the SLO, the next submission sheds with
// reason "slo" while every occupancy limit is stone cold, and the shed
// is visible in both /api/status and /metrics.
func TestControlLoopSLOShedEndToEnd(t *testing.T) {
	reg := algo.NewBuiltinRegistry()
	reg.Register(algo.Func{
		AlgoName: "slow",
		AlgoDesc: "sleeps long enough to breach the test SLO",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			select {
			case <-time.After(60 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return ranking.NewResult("slow", g, make([]float64, g.NumNodes()))
		},
	})
	s, ts := bootControlServer(t, t.TempDir(), Config{
		Registry: reg,
		Admission: task.AdmissionConfig{
			InteractiveSlots: 8,
			SLOInteractive:   20 * time.Millisecond,
		},
	})
	defer closeBoot(t, s, ts)

	// Sequential slow tasks build the latency window; each is admitted
	// because the p99 only counts once enough samples are live.
	const slowBody = `{"tasks": [{"dataset": "complete-50", "algorithm": "slow"}]}`
	for i := 0; i < 5; i++ {
		sub, status := postTasks(t, ts.URL, slowBody)
		if status != http.StatusAccepted {
			t.Fatalf("slow task %d shed prematurely: status %d", i, status)
		}
		if view := waitTask(t, ts.URL, sub.TaskIDs[0]); view.Task.State != task.StateDone {
			t.Fatalf("slow task %d state %s: %s", i, view.Task.State, view.Task.Error)
		}
	}

	// The tier is idle — zero inflight, zero backlog — but the p99 says
	// the SLO is breached, and that alone must shed.
	resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(slowBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-breach submit status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "slo") {
		t.Errorf("429 body %q does not name the slo limit", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("slo shed carries no Retry-After header")
	}

	var st statusResponse
	getJSON(t, ts.URL+"/api/status", &st)
	if st.Serving.ShedSLO != 1 {
		t.Errorf("serving row shed_slo = %d, want 1", st.Serving.ShedSLO)
	}
	if st.Serving.Inflight != 0 || st.Serving.PendingInteractive != 0 || st.Serving.BacklogUnits != 0 {
		t.Errorf("occupancy not cold at shed time: %+v", st.Serving)
	}
	if st.Serving.InteractiveP99MS <= 20 {
		t.Errorf("serving row p99 %.1fms does not show the breach", st.Serving.InteractiveP99MS)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(scrape), `cyclerank_admission_shed_total{reason="slo"} 1`) {
		t.Error("scrape does not carry the slo shed counter")
	}
	// The control loop's new metric families are all scrapeable.
	for _, fam := range []string{
		"cyclerank_admission_backlog_ms",
		"cyclerank_admission_interactive_slots",
		"cyclerank_admission_interactive_p99_seconds",
		"cyclerank_admission_slot_adjustments_total",
		"cyclerank_class_run_seconds",
		"cyclerank_cost_calibration_units_per_ms",
		"cyclerank_cost_prediction_ratio",
		"cyclerank_traffic_decay_epoch",
		"cyclerank_traffic_decays_total",
	} {
		if !strings.Contains(string(scrape), fam) {
			t.Errorf("scrape missing metric family %s", fam)
		}
	}
}

// TestControlLoopTrafficDecayThreeBoots closes acceptance point (c):
// a sketch artifact of the retired v1 codec boots cold and is
// overwritten as v2 on close; a hot key persisted in a v2 artifact
// loads, gets pinned by the learned pre-warm while hot, decays across
// a boot with a short half-life, and by the third boot has aged out of
// the pre-warm pin set — with the decay epoch carried in the artifact
// so restarts never replay or skip halvings.
func TestControlLoopTrafficDecayThreeBoots(t *testing.T) {
	dir := t.TempDir()

	// Seed an artifact holding the exact warm keys a bippr-pair
	// "0"->"1" query records (defaults applied, so the pre-warm
	// recomputes byte-identical cache keys).
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := traffic.Load(nil, 0)
	bp := bippr.Params{}.WithDefaults()
	sk.Record(traffic.WarmKey{
		Kind: traffic.KindIndex, Dataset: "complete-50", Node: "1",
		Alpha: bp.Alpha, RMax: bp.RMax,
	}.String())
	sk.Record(traffic.WarmKey{
		Kind: traffic.KindEndpoints, Dataset: "complete-50", Node: "0",
		Alpha: bp.Alpha, Seed: bp.Seed, MaxSteps: bp.MaxSteps, Walks: bp.Walks,
	}.String())

	// Boot 0: the same bytes with the version field set to 1 and the
	// checksum re-sealed are a version mismatch, so the server starts
	// cold and its closing persist replaces the file with a v2 one.
	v1 := sk.Encode()
	binary.LittleEndian.PutUint16(v1, 1)
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc32.ChecksumIEEE(v1[:len(v1)-4]))
	if err := store.SaveTrafficSketch(v1); err != nil {
		t.Fatal(err)
	}
	s0, ts0 := bootControlServer(t, dir, Config{TrafficHalfLife: -1})
	if tr := s0.trafficStatus(); tr.Restored || tr.Tracked != 0 || tr.Recorded != 0 {
		t.Fatalf("boot 0 warmed up from a v1 artifact: %+v", tr)
	}
	closeBoot(t, s0, ts0)
	data, err := store.LoadTrafficSketch()
	if err != nil {
		t.Fatal(err)
	}
	if rewritten, err := traffic.Decode(data); err != nil || rewritten.Stats().Recorded != 0 {
		t.Fatalf("boot 0 left no cold v2 artifact behind: %v", err)
	}

	// Boot 1: the v2 artifact loads (restored, epoch 0) and the learned
	// pre-warm pins both hot artifacts. No decay this boot.
	if err := store.SaveTrafficSketch(sk.Encode()); err != nil {
		t.Fatal(err)
	}
	s1, ts1 := bootControlServer(t, dir, Config{PreWarm: true, TrafficHalfLife: -1})
	waitControlPrewarm(t, s1)
	tr := s1.trafficStatus()
	if !tr.Restored || tr.DecayEpoch != 0 || tr.Tracked != 2 {
		t.Fatalf("boot 1 did not restore the artifact: %+v", tr)
	}
	if tr.Pinned != 2 {
		t.Fatalf("boot 1 pinned %d artifacts, want the 2 hot keys", tr.Pinned)
	}
	closeBoot(t, s1, ts1)

	// Boot 2: a short half-life decays the counts (1 each) to zero,
	// dropping both keys from the heavy-hitter table.
	s2, ts2 := bootControlServer(t, dir, Config{TrafficHalfLife: 25 * time.Millisecond})
	if tr := s2.trafficStatus(); !tr.Restored || tr.Tracked != 2 {
		t.Fatalf("boot 2 did not restore the artifact: %+v", tr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tr = s2.trafficStatus()
		if tr.Tracked == 0 && tr.DecayEpoch >= 1 && tr.Decays >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("boot 2 never decayed the hot keys: %+v", tr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeBoot(t, s2, ts2) // persists the decayed sketch + epoch

	// Boot 3: the formerly-hot keys are gone from the restored sketch,
	// so the learned pre-warm finds nothing to warm and pins nothing.
	s3, ts3 := bootControlServer(t, dir, Config{PreWarm: true, TrafficHalfLife: -1})
	defer closeBoot(t, s3, ts3)
	waitControlPrewarm(t, s3)
	tr = s3.trafficStatus()
	if !tr.Restored || tr.DecayEpoch < 1 {
		t.Fatalf("boot 3 lost the decay epoch: %+v", tr)
	}
	if tr.Tracked != 0 || tr.Pinned != 0 {
		t.Errorf("formerly-hot keys still warm on boot 3: tracked %d pinned %d", tr.Tracked, tr.Pinned)
	}
	if warm := s3.prewarm.snapshot(); warm.LearnedKeys != 0 {
		t.Errorf("learned pre-warm saw %d keys, want 0 after decay", warm.LearnedKeys)
	}
}

func waitControlPrewarm(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for s.prewarm.snapshot().State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("pre-warm did not finish: %+v", s.prewarm.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
