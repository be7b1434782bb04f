package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/server"
)

// stack is an in-process copy of what crserver assembles: the same
// server.New over a fresh datastore with crserver's defaults. With a
// recorder, the calls into each layer are wrapped in timing
// decorators; without, the stack is plain and serves as the untraced
// in-process baseline the tracing overhead is measured against.
type stack struct {
	srv   *server.Server
	store *datastore.Store
	dir   string
}

func newStack(dataRoot string, rec *recorder) (*stack, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "crdata-")
	if err != nil {
		return nil, err
	}
	store, err := datastore.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	catalog, err := datasets.BuiltinCatalog()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg := server.Config{
		Catalog:     catalog,
		Store:       store,
		Workers:     2,
		TaskTimeout: 5 * time.Minute, // crserver's -task-timeout default
		PreWarm:     true,
	}
	if rec != nil {
		index := tracedIndexStore{bippr.NewTieredStore(bippr.DefaultCacheSize, tracedDisk{store, rec}), rec}
		endpoints := bippr.NewTieredEndpointCache(bippr.DefaultEndpointCacheSize, store)
		registry := algo.NewRegistry()
		for _, a := range algo.BuiltinsWith(bippr.NewEstimatorWithCaches(index, endpoints)) {
			if err := registry.Register(tracedAlgorithm(a, rec)); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
		}
		cfg.IndexStore = index
		cfg.EndpointCache = endpoints
		cfg.Registry = registry
		cfg.SlowQueryThreshold = time.Nanosecond
		cfg.SlowQueryLog = visibleWriter{rec}
	}
	srv, err := server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &stack{srv: srv, store: store, dir: dir}, nil
}

func (s *stack) close() {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Scheduler().Shutdown(ctx) // nothing is in flight; a timeout only delays exit
	os.RemoveAll(s.dir)
}

// waitPrewarm blocks until the stack's startup pre-warm is done.
func (s *stack) waitPrewarm() error {
	t := inprocTransport{srv: s.srv}
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, body, err := t.do(http.MethodGet, "/api/status", nil)
		if err != nil {
			return err
		}
		if bytes.Contains(body, []byte(`"state": "done"`)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process pre-warm not done after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// inprocTransport calls the server's handler directly: the same
// requests as over the wire, minus the wire. With a recorder every
// exchange becomes a span under the open operation's root.
type inprocTransport struct {
	srv  *server.Server
	rec  *recorder
	root int // the open operation's root span
}

func (t inprocTransport) do(method, path string, body []byte) (int, []byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	var start int64
	if t.rec != nil {
		start = t.rec.now()
	}
	t.srv.ServeHTTP(w, req)
	if t.rec != nil {
		t.rec.add(t.root, handlerSpanName(method, path), start, t.rec.now())
	}
	return w.Code, w.Body.Bytes(), nil
}

func handlerSpanName(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasPrefix(path, "/api/datasets/"):
		return "server.upload"
	case method == http.MethodPost:
		return "server.submit"
	}
	// Every poll is recorded as pending; tracedOp renames the last one.
	return "server.poll_pending"
}

// tracedOp runs one operation on the traced stack and assembles its
// span tree under one root: the handler spans the transport recorded,
// the Run spans the algorithm decorators recorded (with the index,
// push and artifact spans below them), and the waits that tile the
// critical path between them — task.dispatch (submit handled → the
// critical task's Run entered), task.finish (Run returned → result
// visible to a poll) and client.poll_lag (visible → the observing
// poll began). The critical task is the one whose result became
// visible last. What the executors did for the set's other tasks
// while it waited is nested under its dispatch span, so that span's
// self time is the wait nothing else explains.
//
// Result.Top sits behind a concrete type and cannot be decorated, so
// after the operation has ended each task's own result is ranked once
// more and the time is laid into its finish span as ranking.top.
func tracedOp(st *stack, rec *recorder, r *refs, index int, o op) (opOutcome, error) {
	rec.begin(index)
	defer rec.end()
	start := rec.now()
	root := rec.add(-1, "op", start, start)
	var out opOutcome
	err := runAndValidate(inprocTransport{srv: st.srv, rec: rec, root: root}, r, o, &out)
	if err != nil {
		rec.finish(root, rec.now())
		return out, err
	}
	rec.finish(root, int64(out.end.Sub(rec.epoch)))

	names := make([]string, len(o.Tasks))
	for i, spec := range o.Tasks {
		names[i] = spec.Algorithm
	}
	visible, ok := rec.visibleAt(names)
	if !ok {
		return out, fmt.Errorf("trace: %d of %d tasks never reported terminal", len(visible), len(names))
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	var submitEnd int64
	lastPoll := -1
	for i := root; i < len(rec.spans); i++ {
		switch rec.spans[i].Name {
		case "server.submit":
			submitEnd = rec.spans[i].End
		case "server.poll_pending":
			lastPoll = i
		}
	}
	rec.spans[lastPoll].Name = "server.poll"
	pollStart := rec.spans[lastPoll].Start

	// The report is written just after the state a poll can see, so
	// the observing poll may begin in between; clamp to its start.
	critical := names[0]
	for _, name := range names {
		visible[name] = min(visible[name], pollStart)
		if visible[name] > visible[critical] {
			critical = name
		}
	}
	for _, name := range names {
		if _, ok := rec.runs[name]; !ok {
			return out, fmt.Errorf("trace: no Run span for %s", name)
		}
	}
	add := func(parent int, name string, start, end int64) int {
		id := len(rec.spans)
		rec.spans = append(rec.spans, span{ID: id, Parent: parent, Op: index, Name: name, Start: start, End: max(start, end)})
		return id
	}
	criticalRun := rec.spans[rec.runs[critical].span]
	dispatch := add(root, "task.dispatch", submitEnd, criticalRun.Start)
	for _, name := range names {
		run := rec.runs[name]
		parent := root
		if mid := (rec.spans[run.span].Start + rec.spans[run.span].End) / 2; name != critical && mid < criticalRun.Start {
			parent = dispatch
		}
		rec.spans[run.span].Parent = parent
		runEnd := rec.spans[run.span].End
		finish := add(parent, "task.finish", runEnd, visible[name])
		begin := time.Now()
		run.result.Top(servedTopK)
		add(finish, "ranking.top", runEnd, min(runEnd+int64(time.Since(begin)), visible[name]))
	}
	add(root, "client.poll_lag", visible[critical], pollStart)
	return out, nil
}

// opCoverage is the share of an operation's wall time that the spans
// below its root account for.
func opCoverage(spans []span, self map[int]int64, root int) float64 {
	d := spans[root].dur()
	if d <= 0 {
		return math.NaN()
	}
	return 1 - float64(self[root])/float64(d)
}

// traceFile is what benchmark/out/trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}
