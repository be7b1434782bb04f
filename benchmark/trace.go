package main

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the recorder was created. Parent is the id of the
// span that caused this one, -1 for an operation's root. Spans of one
// operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span is charged to: the part of its name
// before the first dot.
func (s span) layer() string { return layerOf(s.Name) }

func layerOf(spanName string) string {
	layer, _, _ := strings.Cut(spanName, ".")
	return layer
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover. Children may overlap
// each other (two executors run at once) and may stick out of the
// parent; only the union of their intervals inside the parent counts.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// recorder collects spans in memory. One operation is in flight at a
// time, so spans recorded from executor goroutines belong to the
// operation the client has open.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	op    int // id of the open operation; -1 between operations
	// index is the open bippr.index span, the parent of the push and
	// artifact spans recorded while it is open. Every workload keeps
	// at most one bippr task in flight.
	index int
	// runs maps an algorithm name to the Run of its task of the open
	// operation, visible to when that task turned terminal for
	// observers. No workload submits one algorithm twice in a set.
	runs    map[string]tracedRun
	visible map[string]int64
	// tiers counts index lookups of measured operations by the tier
	// that answered; savedBytes sums the artifacts they persisted.
	tiers      map[bippr.Tier]int
	savedBytes int64
}

// tracedRun is one Algorithm.Run call: its span and what it returned.
type tracedRun struct {
	span   int
	result *ranking.Result
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), op: -1, index: -1, runs: map[string]tracedRun{}, visible: map[string]int64{}, tiers: map[bippr.Tier]int{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span of the open operation and returns its id; spans
// arriving while no operation is open (pre-warm, warm-up) are dropped.
func (r *recorder) add(parent int, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.op < 0 {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: start, End: end})
	return id
}

// begin opens operation op; end closes it.
func (r *recorder) begin(op int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.op = op
	clear(r.runs)
	clear(r.visible)
}

func (r *recorder) end() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.op = -1
}

// --- decorators around the calls into each layer ---

type spanKey struct{}

// parentOf returns the id of the span that ctx runs under, -1 if none.
func parentOf(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

// runSpanName is the span name of an algorithm's Run: the module that
// implements it, then the algorithm.
func runSpanName(algorithm string) string {
	switch algorithm {
	case algo.NameCycleRank:
		return "core.cyclerank"
	case algo.NamePPRTarget:
		return "bippr.target"
	case algo.NameBiPPRPair:
		return "bippr.pair"
	}
	return "pagerank." + algorithm
}

// isRunSpan reports whether a span name is some algorithm's Run.
func isRunSpan(name string) bool {
	switch name {
	case "bippr.target", "bippr.pair", "core.cyclerank":
		return true
	}
	return strings.HasPrefix(name, "pagerank.")
}

// tracedAlgorithm wraps a built-in so that its Run is a span and the
// layers below it see that span as their parent.
func tracedAlgorithm(a algo.Algorithm, rec *recorder) algo.Algorithm {
	return algo.Func{
		AlgoName: a.Name(),
		AlgoDesc: a.Description(),
		Source:   a.NeedsSource(),
		Target:   algo.NeedsTarget(a),
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			start := rec.now()
			// The id is reserved before the call so that child spans can
			// name their parent; the end time is patched in after.
			id := rec.add(-1, runSpanName(a.Name()), start, start)
			res, err := a.Run(context.WithValue(ctx, spanKey{}, id), g, p)
			rec.finish(id, rec.now())
			if id >= 0 && err == nil {
				rec.mu.Lock()
				rec.runs[a.Name()] = tracedRun{id, res}
				rec.mu.Unlock()
			}
			return res, err
		},
	}
}

func (r *recorder) finish(id int, end int64) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// tracedIndexStore times the estimator's index lookups and the
// reverse push they run on a miss, and counts the answering tiers.
type tracedIndexStore struct {
	bippr.IndexStore
	rec *recorder
}

func (s tracedIndexStore) GetOrCompute(ctx context.Context, g *graph.Graph, target graph.NodeID, alpha, rmax float64,
	compute func() (*bippr.TargetIndex, error)) (*bippr.TargetIndex, bippr.Tier, error) {
	start := s.rec.now()
	id := s.rec.add(parentOf(ctx), "bippr.index", start, start)
	s.rec.setIndex(id)
	idx, tier, err := s.IndexStore.GetOrCompute(ctx, g, target, alpha, rmax, func() (*bippr.TargetIndex, error) {
		pushStart := s.rec.now()
		idx, err := compute()
		s.rec.add(id, "bippr.push", pushStart, s.rec.now())
		return idx, err
	})
	s.rec.finish(id, s.rec.now())
	s.rec.setIndex(-1)
	if id >= 0 && err == nil {
		s.rec.mu.Lock()
		s.rec.tiers[tier]++
		s.rec.mu.Unlock()
	}
	return idx, tier, err
}

func (r *recorder) setIndex(id int) {
	r.mu.Lock()
	r.index = id
	r.mu.Unlock()
}

func (r *recorder) openIndex() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.index
}

// tracedDisk times the index artifacts' trips to the datastore.
type tracedDisk struct {
	bippr.DiskTier
	rec *recorder
}

func (d tracedDisk) LoadIndex(graphFP, key string) ([]byte, error) {
	start := d.rec.now()
	data, err := d.DiskTier.LoadIndex(graphFP, key)
	if err == nil { // a miss is a failed stat, not a load
		d.rec.add(d.rec.openIndex(), "artifact.load", start, d.rec.now())
	}
	return data, err
}

func (d tracedDisk) SaveIndex(graphFP, key string, data []byte) error {
	start := d.rec.now()
	err := d.DiskTier.SaveIndex(graphFP, key, data)
	if id := d.rec.add(d.rec.openIndex(), "artifact.save", start, d.rec.now()); id >= 0 {
		d.rec.mu.Lock()
		d.rec.savedBytes += int64(len(data))
		d.rec.mu.Unlock()
	}
	return err
}

// visibleWriter is handed to the scheduler as its slow-query log with
// a threshold every task meets. The scheduler writes the line right
// after it publishes a task's terminal state, which is the one moment
// nothing else exposes: when the result became visible to a poll.
type visibleWriter struct{ rec *recorder }

func (w visibleWriter) Write(line []byte) (int, error) {
	at := w.rec.now()
	var entry struct {
		Algorithm string `json:"algorithm"`
	}
	if json.Unmarshal(line, &entry) == nil {
		w.rec.mu.Lock()
		w.rec.visible[entry.Algorithm] = at
		w.rec.mu.Unlock()
	}
	return len(line), nil
}

// visibleAt waits for every named algorithm's task of the open
// operation to have reported terminal, and returns the times. The
// line is written microseconds after the state a poll can already
// have seen, so the wait is short; ok is false if a report never came.
func (r *recorder) visibleAt(algorithms []string) (map[string]int64, bool) {
	deadline := time.Now().Add(time.Second)
	for {
		r.mu.Lock()
		out := make(map[string]int64, len(algorithms))
		for _, a := range algorithms {
			if at, ok := r.visible[a]; ok {
				out[a] = at
			}
		}
		r.mu.Unlock()
		if len(out) == len(algorithms) {
			return out, true
		}
		if time.Now().After(deadline) {
			return out, false
		}
		time.Sleep(20 * time.Microsecond)
	}
}
