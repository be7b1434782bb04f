package server

import (
	"context"
	"fmt"
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

// queueSlots is each tier's queue capacity.
const queueSlots = 128

// bipprBody is the reference query both the saturated and the pristine
// server run; the admitted result must be bit-identical across them.
const bipprBody = `{"tasks": [{"dataset": "complete-50", "algorithm": "bippr-pair",
	"params": {"source": "0", "target": "1", "walks": 256}}]}`

// settle waits for a submitted query set to finish and returns the
// task view of its first task.
func settle(t *testing.T, s *Server, url string, sub submitResponse) taskView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := s.Scheduler().WaitQuerySet(ctx, sub.ComparisonID); err != nil {
		t.Fatal(err)
	}
	var view taskView
	getJSON(t, url+"/api/tasks/"+sub.TaskIDs[0], &view)
	return view
}

// TestServerShedsUnderSaturation pins the one interactive executor,
// fills its queue, then floods it: every flooded submission must be a
// 429 with Retry-After: 1 and a body naming the full queue, with zero
// graph loads on the reject path and counters reconciling exactly with
// the harness's own tallies. A batch submitted meanwhile is admitted
// and completes on its own pool, and after the load passes an admitted
// query returns results bit-identical to an unloaded server's.
func TestServerShedsUnderSaturation(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	// A gate-blocking algorithm pins the interactive executor for as
	// long as the flood needs and reports when it starts; the builtins
	// stay available for the bit-identical check afterwards.
	reg := algo.NewBuiltinRegistry()
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	reg.Register(algo.Func{
		AlgoName: "block",
		AlgoDesc: "holds its executor until released",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return ranking.NewResult("block", g, make([]float64, g.NumNodes()))
		},
	})
	s, err := New(Config{Registry: reg, Catalog: catalog, Store: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Release the pinned executor before the server closes.
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		closeWithin(t, s, 5*time.Second)
	}()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The blocker loads the graph, then pins the executor: any later
	// load could only come from the reject path, which must never pay
	// one.
	const blockBody = `{"dataset": "complete-50", "algorithm": "block"}`
	if _, status := postTasks(t, ts.URL, `{"tasks": [`+blockBody+`]}`); status != http.StatusAccepted {
		t.Fatalf("blocker submit status %d", status)
	}
	<-started
	loadsBefore := s.Scheduler().AdmissionStats().GraphLoads

	// One query set fills the interactive queue to the brim.
	fill := strings.TrimSuffix(strings.Repeat(blockBody+",", queueSlots), ",")
	filler, status := postTasks(t, ts.URL, `{"tasks": [`+fill+`]}`)
	if status != http.StatusAccepted {
		t.Fatalf("filler submit status %d", status)
	}

	// Flood: 16 concurrent submissions against the full queue.
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
			if !strings.Contains(string(data), "interactive queue full") {
				t.Errorf("429 body %q does not explain the shed", data)
			}
		}()
	}
	wg.Wait()

	if len(badStatus) != 0 || got429 != flood {
		t.Fatalf("flood: %d/%d shed with 429, other statuses %v", got429, flood, badStatus)
	}
	if retryAfter["1"] != flood {
		t.Errorf("Retry-After headers %v, want %d x %q", retryAfter, flood, "1")
	}
	if loads := s.Scheduler().AdmissionStats().GraphLoads; loads != loadsBefore {
		t.Errorf("reject path loaded graphs: %d -> %d", loadsBefore, loads)
	}

	// The serving row must reconcile exactly with the harness tallies.
	var statusDoc statusResponse
	getJSON(t, ts.URL+"/api/status", &statusDoc)
	serving := statusDoc.Serving
	if serving.ShedQueue != flood {
		t.Errorf("shed_queue = %d, want %d", serving.ShedQueue, flood)
	}
	if serving.AdmittedInteractive != 1+queueSlots {
		t.Errorf("admitted_interactive = %d, want %d", serving.AdmittedInteractive, 1+queueSlots)
	}

	// /metrics must tell the same story.
	scrape := string(get(t, ts.URL+"/metrics"))
	if !strings.Contains(scrape, `cyclerank_admission_shed_total{reason="queue"} 16`) {
		t.Error("scrape does not carry the shed counter")
	}
	if !strings.Contains(scrape, fmt.Sprintf(`cyclerank_admission_admitted_total{class="interactive"} %d`, 1+queueSlots)) {
		t.Error("scrape does not carry the admitted counter")
	}

	// Batch traffic has its own queue: with the interactive tier still
	// saturated, a queries submission (batch by default) is admitted
	// and completes on the batch pool.
	const batchBody = `{"dataset": "complete-50", "algorithm": "bippr-pair",
		"queries": [{"params": {"source": "0", "target": "1", "walks": 256}}]}`
	bsub, bstatus := postTasks(t, ts.URL, batchBody)
	if bstatus != http.StatusAccepted || len(bsub.TaskIDs) != 1 {
		t.Fatalf("batch submit under saturation: status %d, ids %v", bstatus, bsub.TaskIDs)
	}
	batchLoaded := settle(t, s, ts.URL, bsub)
	if batchLoaded.Task.State != task.StateDone {
		t.Fatalf("batch under saturation state %s: %s", batchLoaded.Task.State, batchLoaded.Task.Error)
	}
	if got := s.Scheduler().AdmissionStats().AdmittedBatch; got != 1 {
		t.Errorf("admitted_batch = %d, want 1", got)
	}

	// Release the tier and let the queue drain.
	close(gate)
	settle(t, s, ts.URL, filler)

	// Shed is not brownout: the same query, now admitted, must return
	// results bit-identical to a server that never saw the flood.
	sub, status := postTasks(t, ts.URL, bipprBody)
	if status != http.StatusAccepted || len(sub.TaskIDs) != 1 {
		t.Fatalf("post-flood submit status %d, ids %v", status, sub.TaskIDs)
	}
	loaded := settle(t, s, ts.URL, sub)
	if loaded.Task.State != task.StateDone {
		t.Fatalf("admitted task state %s: %s", loaded.Task.State, loaded.Task.Error)
	}

	ps, pristine := newTestServer(t)
	sub, status = postTasks(t, pristine.URL, bipprBody)
	if status != http.StatusAccepted || len(sub.TaskIDs) != 1 {
		t.Fatalf("pristine submit status %d, ids %v", status, sub.TaskIDs)
	}
	want := settle(t, ps, pristine.URL, sub)
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
	// too: a full interactive queue never degrades batch answers.
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

// TestOversizeQuerySetIsBadRequest submits a set with one task more
// for a tier than that tier's whole queue holds. It would not fit even
// an idle server, so a 429 would have the client retry forever: it
// must be a 400 without Retry-After that names the tier and the set
// size, with nothing registered, no shed counted and no graph loaded.
// A set that fits is then admitted as usual.
func TestOversizeQuerySetIsBadRequest(t *testing.T) {
	for _, tc := range []struct{ name, class string }{{"queue", "interactive"}, {"batch-queue", "batch"}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := fmt.Sprintf(`{"dataset": "complete-50", "algorithm": "pagerank", "class": %q}`, tc.class)
			body := `{"tasks": [` + strings.TrimSuffix(strings.Repeat(spec+",", queueSlots+1), ",") + `]}`
			s, ts := bootServer(t, t.TempDir(), Config{})
			defer closeBoot(t, s, ts)

			resp, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, msg)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				t.Errorf("Retry-After %q on a set that can never fit", ra)
			}
			if want := fmt.Sprintf("%d %s tasks", queueSlots+1, tc.class); !strings.Contains(string(msg), want) {
				t.Errorf("body %s does not name the set size %q", msg, want)
			}
			if n := len(s.Scheduler().Tasks()); n != 0 {
				t.Errorf("%d tasks registered by a refused set", n)
			}
			st := s.Scheduler().AdmissionStats()
			if st.AdmittedInteractive+st.AdmittedBatch != 0 || st.ShedQueue != 0 || st.GraphLoads != 0 {
				t.Errorf("refused set moved the serving counters: %+v", st)
			}

			if _, status := postTasks(t, ts.URL, `{"tasks": [`+spec+`]}`); status != http.StatusAccepted {
				t.Errorf("a set that fits got status %d", status)
			}
		})
	}
}
