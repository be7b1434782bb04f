package task

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// queueHarness is a scheduler with one executor per tier. Its "block"
// algorithm reports on started, then holds its executor until gate
// closes; "noop" returns at once. Load counts its calls. Pinning both
// executors with block tasks freezes both queues, so every Submit
// outcome follows from the queue bound alone.
type queueHarness struct {
	s       *Scheduler
	gate    chan struct{}
	started chan struct{}
	loads   atomic.Int64
}

func newQueueHarness(t *testing.T) *queueHarness {
	t.Helper()
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// started holds one send per tier pin, so no block task waits on
	// the test to read it.
	h := &queueHarness{gate: make(chan struct{}), started: make(chan struct{}, 2)}
	reg := algo.NewRegistry()
	for _, a := range []algo.Func{{
		AlgoName: "block",
		AlgoDesc: "holds its executor until the test opens the gate",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			h.started <- struct{}{}
			select {
			case <-h.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return ranking.NewResult("block", g, make([]float64, g.NumNodes()))
		},
	}, {
		AlgoName: "noop",
		AlgoDesc: "returns immediately",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			return ranking.NewResult("noop", g, make([]float64, g.NumNodes()))
		},
	}} {
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	g := testGraph(t)
	h.s, err = NewScheduler(SchedulerConfig{
		Registry:     reg,
		Store:        store,
		Workers:      1,
		BatchWorkers: 1,
		Load: func(string) (*graph.Graph, error) {
			h.loads.Add(1)
			return g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.open()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.s.Shutdown(ctx)
	})
	return h
}

// pin occupies the executor of each given tier with a block task and
// returns once they run: from then on nothing leaves those queues
// until open.
func (h *queueHarness) pin(t *testing.T, classes ...Class) {
	t.Helper()
	for _, c := range classes {
		if _, _, err := h.s.Submit([]Spec{{Dataset: "demo", Algorithm: "block", Class: c}}); err != nil {
			t.Fatal(err)
		}
	}
	for range classes {
		<-h.started
	}
}

func (h *queueHarness) open() {
	select {
	case <-h.gate:
	default:
		close(h.gate)
	}
}

// traceSets are the query-set shapes of the trace.
var traceSets = []struct {
	name  string
	specs []Spec
}{
	{"single", []Spec{{Dataset: "demo", Algorithm: "noop"}}},
	{"seven", []Spec{
		{Dataset: "demo", Algorithm: "noop"}, {Dataset: "demo", Algorithm: "noop"},
		{Dataset: "demo", Algorithm: "noop"}, {Dataset: "demo", Algorithm: "noop"},
		{Dataset: "demo", Algorithm: "noop"}, {Dataset: "demo", Algorithm: "noop"},
		{Dataset: "demo", Algorithm: "noop"},
	}},
	{"queries", []Spec{{Dataset: "demo", Algorithm: "noop",
		Queries: []SubSpec{{Algorithm: "noop"}, {Algorithm: "noop"}, {Algorithm: "noop"}}}}},
	{"both tiers", []Spec{
		{Dataset: "demo", Algorithm: "noop"}, {Dataset: "demo", Algorithm: "noop"},
		{Dataset: "demo", Algorithm: "noop", Class: ClassBatch},
		{Dataset: "demo", Algorithm: "noop", Class: ClassBatch},
		{Dataset: "demo", Algorithm: "noop", Class: ClassBatch},
	}},
}

// TestQueueBoundTrace drives a seeded trace of mixed query sets through
// the real Scheduler behind two pinned executors until one tier has
// been offered twice what its queue holds. It predicts every outcome
// from the free slots per tier: a set is registered whole when each of
// its tiers has room for all of its tasks there, and refused with
// *ShedError otherwise, registering nothing and loading no graph. No
// task ever fails with "queue full", shed_queue counts exactly the
// refused tasks, the tier with room keeps admitting while the other
// refuses, and once the gate opens every registered task completes.
func TestQueueBoundTrace(t *testing.T) {
	cases := []struct {
		name    string
		weights []int // per traceSets entry
		heavy   Class
	}{
		{"interactive-heavy", []int{1, 3, 2, 1}, ClassInteractive},
		{"batch-heavy", []int{1, 0, 4, 2}, ClassBatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newQueueHarness(t)
			h.pin(t, ClassInteractive, ClassBatch)
			loads := h.loads.Load()
			queues := map[Class]chan string{ClassInteractive: h.s.queue, ClassBatch: h.s.batchQueue}
			free := map[Class]int{ClassInteractive: cap(h.s.queue), ClassBatch: cap(h.s.batchQueue)}
			offered := map[Class]int{}
			rng := rand.New(rand.NewSource(1))
			var (
				admitted      []string
				refused       int64
				heavyRefused  bool // a set was refused for lack of room in the heavy tier
				lightAdmitted int  // light-tier-only sets admitted after that
			)
			for i := 0; offered[tc.heavy] < 2*cap(queues[tc.heavy]); i++ {
				pick := rng.Intn(sumInts(tc.weights))
				k := 0
				for pick >= tc.weights[k] {
					pick -= tc.weights[k]
					k++
				}
				set := traceSets[k]
				need := map[Class]int{}
				for _, spec := range set.specs {
					need[resolveClass(spec)]++
				}
				fits := true
				for c, n := range need {
					offered[c] += n
					fits = fits && n <= free[c]
				}
				registered := len(h.s.Tasks())
				qs, ids, err := h.s.Submit(set.specs)
				if !fits {
					var shed *ShedError
					if !errors.As(err, &shed) {
						t.Fatalf("set %d (%s) needs %v, free %v: err = %v, want *ShedError", i, set.name, need, free, err)
					}
					if n := len(h.s.Tasks()); n != registered {
						t.Fatalf("set %d (%s): refused set registered %d tasks", i, set.name, n-registered)
					}
					refused += int64(len(set.specs))
					heavyRefused = heavyRefused || need[tc.heavy] > free[tc.heavy]
					continue
				}
				if err != nil {
					t.Fatalf("set %d (%s) needs %v, free %v: %v", i, set.name, need, free, err)
				}
				tasks, err := h.s.QuerySet(qs)
				if err != nil || len(tasks) != len(set.specs) || len(ids) != len(set.specs) {
					t.Fatalf("set %d (%s): registered %d of %d tasks (%v)", i, set.name, len(tasks), len(set.specs), err)
				}
				for _, tk := range tasks {
					if tk.State != StatePending {
						t.Fatalf("set %d (%s): task %s is %s (%s), want pending", i, set.name, tk.ID, tk.State, tk.Error)
					}
				}
				for c, n := range need {
					free[c] -= n
				}
				if heavyRefused && need[tc.heavy] == 0 {
					lightAdmitted++
				}
				admitted = append(admitted, qs)
				for c, q := range queues {
					if len(q) != cap(q)-free[c] {
						t.Fatalf("set %d: %s queue holds %d, want %d", i, c, len(q), cap(q)-free[c])
					}
				}
			}
			if !heavyRefused || lightAdmitted == 0 {
				t.Errorf("the trace never showed the %s tier refusing while the other admitted (refused %v, admitted after %d)",
					tc.heavy, heavyRefused, lightAdmitted)
			}
			if got := h.s.AdmissionStats().ShedQueue; got != refused {
				t.Errorf("shed_queue = %d, want %d refused tasks", got, refused)
			}
			if got := h.loads.Load(); got != loads {
				t.Errorf("the trace loaded %d graphs", got-loads)
			}

			h.open()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, qs := range admitted {
				tasks, err := h.s.WaitQuerySet(ctx, qs)
				if err != nil {
					t.Fatal(err)
				}
				for _, tk := range tasks {
					if tk.State != StateDone {
						t.Fatalf("task %s ended %s (%s), want done", tk.ID, tk.State, tk.Error)
					}
				}
			}
		})
	}
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
