package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// bipprBody is the reference query both the saturated and the pristine
// server run; the admitted result must be bit-identical across them.
const bipprBody = `{"tasks": [{"dataset": "complete-50", "algorithm": "bippr-pair",
	"params": {"source": "0", "target": "1", "walks": 256}}]}`

// TestServerShedsUnderSaturation drives the serving tier 4x over
// capacity: one admitted blocker holds the single interactive slot
// while a concurrent flood must be fast-rejected — every rejection a
// 429 with Retry-After, zero graph loads spent on the reject path,
// counters reconciling exactly with the harness's own tallies — and
// after the load passes, an admitted query returns results
// bit-identical to an unloaded server's.
func TestServerShedsUnderSaturation(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	// A gate-blocking algorithm pins the admitted task in flight for as
	// long as the flood needs; the builtins stay available for the
	// bit-identical check afterwards.
	reg := algo.NewBuiltinRegistry()
	gate := make(chan struct{})
	reg.Register(algo.Func{
		AlgoName: "block",
		AlgoDesc: "holds its executor until released",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return ranking.NewResult("block", g, make([]float64, g.NumNodes()))
		},
	})
	s, err := New(Config{
		Registry: reg,
		Catalog:  catalog,
		Store:    store,
		Workers:  2,
		Admission: task.AdmissionConfig{
			InteractiveSlots: 1,
			RetryAfter:       2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Scheduler().Shutdown(ctx)
	}()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The blocker takes the only slot at submit time.
	sub, status := postTasks(t, ts.URL, `{"tasks": [{"dataset": "complete-50", "algorithm": "block"}]}`)
	if status != http.StatusAccepted || len(sub.TaskIDs) != 1 {
		t.Fatalf("blocker submit status %d, ids %v", status, sub.TaskIDs)
	}
	blockerID := sub.TaskIDs[0]

	// Wait until the blocker is RUNNING: its graph load has then
	// happened, so any further load can only come from the reject path
	// (which must never pay one).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tv taskView
		getJSON(t, ts.URL+"/api/tasks/"+blockerID, &tv)
		// Running is stamped before the executor loads the graph; the
		// baseline below must include the blocker's own load.
		if tv.Task.State == task.StateRunning && s.Scheduler().AdmissionStats().GraphLoads > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started (state %s)", tv.Task.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	loadsBefore := s.Scheduler().AdmissionStats().GraphLoads

	// Flood: 4x over the slot capacity twice over, fully concurrent.
	const flood = 16
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		got429     int
		badStatus  []int
		retryAfter = map[string]int{}
	)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(bipprBody))
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode != http.StatusTooManyRequests {
				badStatus = append(badStatus, resp.StatusCode)
				return
			}
			got429++
			retryAfter[resp.Header.Get("Retry-After")]++
			if !strings.Contains(string(data), "shed") {
				t.Errorf("429 body %q does not explain the shed", data)
			}
		}()
	}
	wg.Wait()

	if len(badStatus) != 0 || got429 != flood {
		t.Fatalf("flood: %d/%d shed with 429, other statuses %v", got429, flood, badStatus)
	}
	if retryAfter["2"] != flood {
		t.Errorf("Retry-After headers %v, want %d x %q", retryAfter, flood, "2")
	}

	// The reject path must not have loaded a single graph.
	if loads := s.Scheduler().AdmissionStats().GraphLoads; loads != loadsBefore {
		t.Errorf("reject path loaded graphs: %d -> %d", loadsBefore, loads)
	}

	// The serving row must reconcile exactly with the harness tallies.
	var statusDoc statusResponse
	getJSON(t, ts.URL+"/api/status", &statusDoc)
	serving := statusDoc.Serving
	if !serving.Enabled || serving.InteractiveSlots != 1 {
		t.Errorf("serving row %+v not reporting the configured tier", serving)
	}
	if serving.ShedSlots != flood || serving.ShedQueue != 0 || serving.ShedBacklog != 0 {
		t.Errorf("shed counters slots=%d queue=%d backlog=%d, want %d/0/0",
			serving.ShedSlots, serving.ShedQueue, serving.ShedBacklog, flood)
	}
	if serving.AdmittedInteractive != 1 || serving.Inflight != 1 {
		t.Errorf("admitted %d inflight %d, want 1/1", serving.AdmittedInteractive, serving.Inflight)
	}

	// /metrics must tell the same story.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(scrape), `cyclerank_admission_shed_total{reason="slots"} 16`) {
		t.Error("scrape does not carry the shed counter")
	}
	if !strings.Contains(string(scrape), `cyclerank_admission_admitted_total{class="interactive"} 1`) {
		t.Error("scrape does not carry the admitted counter")
	}

	// Batch-class traffic is never shed: with the interactive tier
	// still saturated, a queries submission (batch by default) must be
	// admitted and complete on the dedicated batch pool.
	const batchBody = `{"dataset": "complete-50", "algorithm": "bippr-pair",
		"queries": [{"params": {"source": "0", "target": "1", "walks": 256}}]}`
	bsub, bstatus := postTasks(t, ts.URL, batchBody)
	if bstatus != http.StatusAccepted || len(bsub.TaskIDs) != 1 {
		t.Fatalf("batch submit under saturation: status %d, ids %v", bstatus, bsub.TaskIDs)
	}
	batchLoaded := waitTask(t, ts.URL, bsub.TaskIDs[0])
	if batchLoaded.Task.State != task.StateDone {
		t.Fatalf("batch under saturation state %s: %s", batchLoaded.Task.State, batchLoaded.Task.Error)
	}
	if got := s.Scheduler().AdmissionStats().AdmittedBatch; got != 1 {
		t.Errorf("admitted_batch = %d, want 1", got)
	}

	// Release the tier: cancel the blocker and wait for the slot to
	// return to the budget.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/tasks/"+blockerID, nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	deadline = time.Now().Add(5 * time.Second)
	for s.Scheduler().AdmissionStats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never returned after cancelling the blocker")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Shed is not brownout: the same query, now admitted, must return
	// results bit-identical to a server that never saw the flood.
	sub, status = postTasks(t, ts.URL, bipprBody)
	if status != http.StatusAccepted || len(sub.TaskIDs) != 1 {
		t.Fatalf("post-flood submit status %d, ids %v", status, sub.TaskIDs)
	}
	loaded := waitTask(t, ts.URL, sub.TaskIDs[0])
	if loaded.Task.State != task.StateDone {
		t.Fatalf("admitted task state %s: %s", loaded.Task.State, loaded.Task.Error)
	}
	if loaded.Task.EstimatedCost <= 0 {
		t.Errorf("admitted task carries no estimated_cost: %+v", loaded.Task.EstimatedCost)
	}

	_, pristine := newTestServer(t)
	sub, status = postTasks(t, pristine.URL, bipprBody)
	if status != http.StatusAccepted || len(sub.TaskIDs) != 1 {
		t.Fatalf("pristine submit status %d, ids %v", status, sub.TaskIDs)
	}
	want := waitTask(t, pristine.URL, sub.TaskIDs[0])
	if want.Task.State != task.StateDone {
		t.Fatalf("pristine task state %s: %s", want.Task.State, want.Task.Error)
	}
	if loaded.Result == nil || want.Result == nil {
		t.Fatal("missing result documents")
	}
	if len(loaded.Result.Top) == 0 || len(loaded.Result.Top) != len(want.Result.Top) {
		t.Fatalf("top sizes differ: %d vs %d", len(loaded.Result.Top), len(want.Result.Top))
	}
	for i := range want.Result.Top {
		if loaded.Result.Top[i] != want.Result.Top[i] {
			t.Errorf("top[%d] differs under load: %+v vs %+v", i, loaded.Result.Top[i], want.Result.Top[i])
		}
	}

	// The batch that ran DURING saturation matches the pristine result
	// too: shedding protects interactive latency, it never degrades
	// batch answers.
	if batchLoaded.Result == nil || len(batchLoaded.Result.Queries) != 1 {
		t.Fatal("saturated batch is missing its subresult")
	}
	bTop := batchLoaded.Result.Queries[0].Top
	if len(bTop) != len(want.Result.Top) {
		t.Fatalf("saturated batch top size %d, want %d", len(bTop), len(want.Result.Top))
	}
	for i := range want.Result.Top {
		if bTop[i] != want.Result.Top[i] {
			t.Errorf("batch top[%d] differs under load: %+v vs %+v", i, bTop[i], want.Result.Top[i])
		}
	}
}

// TestLearnedPrewarmSurvivesRestart runs real traffic against one
// server, closes it (persisting the workload sketch), boots a second
// server over the same datastore and checks the learned pre-warm warms
// and pins exactly the artifacts the observed traffic demanded.
func TestLearnedPrewarmSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	catalogOf := func() *datasets.Catalog {
		c, err := datasets.BuiltinCatalogSubset("complete-50")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Boot 1: observe traffic, then close (the saver's final write
	// persists the sketch).
	store1, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Catalog: catalogOf(), Store: store1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	runOneTask(t, ts1) // bippr-pair "0"->"1": one idx key + one ep key recorded
	var st1 statusResponse
	getJSON(t, ts1.URL+"/api/status", &st1)
	if !st1.Traffic.Enabled || st1.Traffic.Recorded != 2 || st1.Traffic.Restored {
		t.Fatalf("boot 1 traffic row %+v, want enabled, 2 recorded, not restored", st1.Traffic)
	}
	ts1.Close()
	s1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Scheduler().Shutdown(ctx)

	// Boot 2: same datastore, pre-warm on. The learned phase must parse
	// the restored heavy hitters and warm both artifacts.
	store2, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Catalog: catalogOf(), Store: store2, Workers: 1, PreWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Scheduler().Shutdown(ctx)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for s2.prewarm.snapshot().State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("pre-warm did not finish: %+v", s2.prewarm.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	traffic := s2.trafficStatus()
	if !traffic.Restored {
		t.Error("boot 2 sketch not restored from the persisted artifact")
	}
	if traffic.Recorded != 2 || traffic.Tracked != 2 {
		t.Errorf("boot 2 traffic %+v, want the 2 observed keys back", traffic)
	}
	warm := s2.prewarm.snapshot()
	if warm.LearnedKeys != 2 || warm.LearnedWarmed != 2 || warm.LearnedErrors != 0 {
		t.Errorf("learned pre-warm %+v, want keys=2 warmed=2 errors=0", warm)
	}
	if traffic.Pinned != 2 {
		t.Errorf("pinned %d artifacts, want 2", traffic.Pinned)
	}

	// The pins are real store-relative paths: a cap-pressured sweep
	// must spare them even when the cap says reap everything.
	pins := s2.trafficState.pinnedPaths()
	if len(pins) != 2 {
		t.Fatalf("pin set %v, want 2 paths", pins)
	}
	idxFiles, _, err := store2.IndexUsage()
	if err != nil || idxFiles == 0 {
		t.Fatalf("no persisted index artifacts (%d files, %v)", idxFiles, err)
	}
	st, err := store2.SweepArtifactsPolicy(datastore.SweepPolicy{TotalBytes: 1, Pinned: pins})
	if err != nil {
		t.Fatal(err)
	}
	idxAfter, _, err := store2.IndexUsage()
	if err != nil {
		t.Fatal(err)
	}
	epAfter, _, err := store2.EndpointUsage()
	if err != nil {
		t.Fatal(err)
	}
	if idxAfter+epAfter < 2 {
		t.Errorf("sweep reaped pinned artifacts: %d idx + %d ep left (sweep stats %+v)",
			idxAfter, epAfter, st)
	}
}
