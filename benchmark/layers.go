package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// perLayer lists the traced run's metrics. Layer = module name. The
// README's interaction table says which end-to-end metric each should
// move on which workload. A metric that does not apply to a workload
// (server.upload_ms on pair-warm) reads 0 there.
var perLayer = []metricDef{
	{"server.submit_ms", "ms", "lower", 0},
	{"server.poll_ms", "ms", "lower", 0},
	{"server.poll_pending_ms", "ms", "lower", 0},
	{"server.upload_ms", "ms", "lower", 0},
	{"server.response_kb", "KB", "lower", 0},
	{"server.wire_ms", "ms", "lower", 0},
	{"server.polls_per_op", "count", "lower", 0},
	{"client.poll_lag_ms", "ms", "lower", 0},
	{"task.submit_ms", "ms", "lower", 0},
	{"task.dispatch_ms", "ms", "lower", 0},
	{"task.finish_ms", "ms", "lower", 0},
	{"task.load_result_ms", "ms", "lower", 0},
	{"task.failed_ratio", "ratio", "lower", 0},
	{"task.shed_ratio", "ratio", "lower", 0},
	{"core.cyclerank_ms", "ms", "lower", 0},
	{"pagerank.pagerank_ms", "ms", "lower", 0},
	{"pagerank.ppr_ms", "ms", "lower", 0},
	{"pagerank.cheirank_ms", "ms", "lower", 0},
	{"pagerank.pcheirank_ms", "ms", "lower", 0},
	{"pagerank.2drank_ms", "ms", "lower", 0},
	{"pagerank.p2drank_ms", "ms", "lower", 0},
	{"bippr.target_ms", "ms", "lower", 0},
	{"bippr.pair_ms", "ms", "lower", 0},
	{"bippr.index_ms", "ms", "lower", 0},
	{"bippr.push_ms", "ms", "lower", 0},
	{"bippr.walk_ms", "ms", "lower", 0},
	{"artifact.index_mem_hit_ratio", "ratio", "higher", 0},
	{"artifact.index_disk_hit_ratio", "ratio", "higher", 0},
	{"artifact.save_ms", "ms", "lower", 0},
	{"artifact.load_ms", "ms", "lower", 0},
	{"artifact.index_kb", "KB", "lower", 0},
	{"datastore.save_result_ms", "ms", "lower", 0},
	{"datastore.append_log_ms", "ms", "lower", 0},
	{"datastore.load_result_ms", "ms", "lower", 0},
	{"datastore.save_dataset_ms", "ms", "lower", 0},
	{"datastore.load_dataset_ms", "ms", "lower", 0},
	{"datastore.result_kb", "KB", "lower", 0},
	{"datastore.files_per_op", "count", "lower", 0},
	{"datastore.save_result_disk_ms", "ms", "lower", 0},
	{"datastore.append_log_disk_ms", "ms", "lower", 0},
	{"datastore.save_dataset_disk_ms", "ms", "lower", 0},
	{"formats.read_ms", "ms", "lower", 0},
	{"graph.build_ms", "ms", "lower", 0},
	{"graph.stats_ms", "ms", "lower", 0},
	{"datasets.load_ms", "ms", "lower", 0},
	{"ranking.top_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"canary.spin_ms", "ms", "lower", 0},
	{"canary.drift_ratio", "ratio", "lower", 0},
}

// traceResult is one workload's traced run.
type traceResult struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	failures  []opFailure
	values    map[string]float64
	// shares is each span name's part of the summed self time of all
	// spans below the operation roots; layerShares groups it by layer.
	shares      map[string]float64
	layerShares map[string]float64
	spans       []span
	// p50s is the operation latency over the wire, in-process and
	// in-process with tracing, in ms.
	p50s [3]float64
	// submitRTTMS is the subprocess pass's median submit round trip.
	submitRTTMS float64
}

// Sizes of the traced run relative to the reported one.
const (
	traceOpsShare = 10 // the first 1/10 of the measured operations
	replaySamples = 40 // documents replayed through each datastore call
	diskSamples   = 10 // ... and through the store on the real disk
	// alternate is how many operations the plain and the traced stack
	// take in turn, so that drift in the box hits both alike.
	alternate = 20
)

// runTrace produces the per-layer numbers for one workload.
//
// It runs a short untraced subprocess pass for what only the wire
// shows (polls per op, response size, the wire time itself), then the
// same seeded stream in-process on two stacks in alternation — a plain
// one and one whose layer boundaries are decorated with spans — and
// finally replays the operations' own documents through the public
// calls of the layers that cannot be decorated.
func runTrace(ctx context.Context, e env, w workload, r *refs, seed int64, seconds int) (*traceResult, error) {
	full, fullWarm := w.counts(seconds)
	n := max(blocks, full/traceOpsShare)
	warm := max(8, fullWarm/traceOpsShare)
	limit := time.Duration(overrunFactor*seconds) * time.Second

	wire, err := runE2E(ctx, e, w, r, seed, n, fullWarm, 1, limit)
	if err != nil {
		return nil, err
	}
	ops, err := w.ops(r, seed, fullWarm, n)
	if err != nil {
		return nil, err
	}
	// The in-process stacks warm up on the tail of the subprocess's
	// warm-up and measure the same operations it measured.
	warmOps, ops := ops[fullWarm-min(warm, fullWarm):fullWarm], ops[fullWarm:]

	rec := newRecorder()
	plain, err := newStack(e.dataRoot, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	traced, err := newStack(e.dataRoot, rec)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	for _, st := range []*stack{plain, traced} {
		if err := st.waitPrewarm(); err != nil {
			return nil, err
		}
		for i, o := range warmOps {
			if err := runAndValidate(inprocTransport{srv: st.srv}, r, o, nil); err != nil {
				return nil, fmt.Errorf("%s: in-process warm-up op %d: %w", w.name, i, err)
			}
		}
	}

	res := &traceResult{workload: w.name, seed: seed, attempted: wire.attempted + 2*n,
		failed: wire.failed, failures: wire.failures, values: make(map[string]float64)}
	fail := func(i int, err error) {
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, opFailure{i, err})
		}
	}
	var (
		plainMS, tracedMS []float64
		overhead          []float64 // per alternation: traced median ÷ plain median
		views             []compareView
		plainT            = inprocTransport{srv: plain.srv}
	)
	for lo := 0; lo < len(ops); lo += alternate {
		hi := min(lo+alternate, len(ops))
		plain0, traced0 := len(plainMS), len(tracedMS)
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			var out opOutcome
			if err := runAndValidate(plainT, r, ops[i], &out); err != nil {
				fail(i, fmt.Errorf("in-process: %w", err))
				continue
			}
			plainMS = append(plainMS, ms(out.end.Sub(out.start)))
		}
		for i := lo; i < hi; i++ {
			out, err := tracedOp(traced, rec, r, i, ops[i])
			if err != nil {
				fail(i, fmt.Errorf("traced: %w", err))
				continue
			}
			tracedMS = append(tracedMS, ms(out.end.Sub(out.start)))
			views = append(views, out.view)
		}
		if len(plainMS) > plain0 && len(tracedMS) > traced0 {
			overhead = append(overhead, median(tracedMS[traced0:])/median(plainMS[plain0:]))
		}
	}
	if len(plainMS) == 0 || len(tracedMS) == 0 {
		return res, nil
	}

	v := res.values
	v["server.response_kb"] = wire.respKB
	v["server.polls_per_op"] = wire.pollsPerOp
	v["datastore.files_per_op"] = wire.filesPerOp
	v["task.failed_ratio"] = float64(res.failed-wire.shed) / float64(res.attempted)
	v["task.shed_ratio"] = float64(wire.shed) / float64(res.attempted)
	v["trace.overhead_ratio"] = median(overhead)
	res.p50s = [3]float64{wire.raw.p50MS, median(plainMS), median(tracedMS)}
	res.submitRTTMS = wire.submitRTTMS
	v["canary.spin_ms"] = wire.canary.before.spinMS
	v["canary.drift_ratio"] = wire.canary.drift()

	res.spans = rec.spans
	analyseSpans(res, rec)
	if err := replayLayers(res, e, w, r, plain, traced, ops, views); err != nil {
		return nil, err
	}
	return res, nil
}

// medianOr0 is the median of values, 0 when there are none: the
// reading of a layer the workload bypasses.
func medianOr0(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return median(values)
}

// analyseSpans turns the recorded spans into the span-derived metrics,
// the coverage figure and the self-time shares.
func analyseSpans(res *traceResult, rec *recorder) {
	spans := res.spans
	self := selfTimes(spans)
	byName := map[string][]float64{}
	var (
		coverage, dispatch, walk []float64
		roots                    []int
		submitEnd                = map[int]int64{}   // op → end of its submit handler
		runStarts                = map[int][]int64{} // op → Run entry of each of its tasks
		indexUnder               = map[int]int64{}   // Run span → time in index lookups below it
		selfByName               = map[string]int64{}
		totalSelf                int64
	)
	for _, s := range spans {
		if s.Name == "op" {
			roots = append(roots, s.ID)
			continue
		}
		switch {
		case s.Name == "server.submit":
			submitEnd[s.Op] = s.End
		case s.Name == "bippr.index" && s.Parent >= 0:
			indexUnder[s.Parent] += s.dur()
		case isRunSpan(s.Name):
			runStarts[s.Op] = append(runStarts[s.Op], s.Start)
		}
		byName[s.Name] = append(byName[s.Name], ms(time.Duration(s.dur())))
		// Polls that found the set unfinished run beside the critical
		// path, not on it; they keep their metric but take no share.
		if s.Name != "server.poll_pending" {
			selfByName[s.Name] += self[s.ID]
			totalSelf += self[s.ID]
		}
	}
	for _, id := range roots {
		coverage = append(coverage, opCoverage(spans, self, id))
	}
	// Dispatch is read for every task, not only the critical one whose
	// wait is a span: queue wait behind the set's other tasks is what
	// the p90 is there to show.
	for op, starts := range runStarts {
		for _, at := range starts {
			dispatch = append(dispatch, ms(time.Duration(max(0, at-submitEnd[op]))))
		}
	}
	for _, s := range spans {
		if s.Name == "bippr.pair" {
			walk = append(walk, ms(time.Duration(s.dur()-indexUnder[s.ID])))
		}
	}

	v := res.values
	for _, name := range []string{
		"server.submit", "server.poll", "server.poll_pending", "server.upload",
		"client.poll_lag", "task.finish",
		"core.cyclerank", "pagerank.pagerank", "pagerank.ppr", "pagerank.cheirank",
		"pagerank.pcheirank", "pagerank.2drank", "pagerank.p2drank",
		"bippr.target", "bippr.pair", "bippr.index", "bippr.push",
		"artifact.save", "artifact.load", "ranking.top",
	} {
		v[name+"_ms"] = medianOr0(byName[name])
	}
	// One exchange's cost outside the handler: the client's round trip
	// of the submit minus the handler's own time. Submit is the exchange
	// to read it from because the server is idle when it arrives.
	v["server.wire_ms"] = res.submitRTTMS - v["server.submit_ms"]
	v["task.dispatch_ms"] = medianOr0(dispatch)
	v["bippr.walk_ms"] = medianOr0(walk)
	v["trace.coverage"] = medianOr0(coverage)

	lookups := 0
	for _, n := range rec.tiers {
		lookups += n
	}
	if lookups > 0 {
		v["artifact.index_mem_hit_ratio"] = float64(rec.tiers[bippr.TierMemory]) / float64(lookups)
		v["artifact.index_disk_hit_ratio"] = float64(rec.tiers[bippr.TierDisk]) / float64(lookups)
	}
	if saves := len(byName["artifact.save"]); saves > 0 {
		v["artifact.index_kb"] = float64(rec.savedBytes) / float64(saves) / 1e3
	}

	res.shares = map[string]float64{}
	res.layerShares = map[string]float64{}
	for name, ns := range selfByName {
		share := float64(ns) / float64(totalSelf)
		res.shares[name] = share
		res.layerShares[layerOf(name)] += share
	}
}

// timeCalls runs f n times and returns each call's duration in ms.
func timeCalls(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		begin := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, msSince(begin))
	}
	return out, nil
}

// replayLayers times the layers that sit behind concrete types and so
// cannot be decorated, by replaying the traced operations' own
// documents through their public calls: the datastore on the run's
// store and again on a store on the real disk, the scheduler's Submit
// and LoadResult, and the parse/build/stats/top-K steps of the upload
// and result paths.
func replayLayers(res *traceResult, e env, w workload, r *refs, plain, traced *stack, ops []op, views []compareView) error {
	v := res.values
	sched := traced.srv.Scheduler()

	// The result documents the traced operations wrote.
	var (
		ids  []string
		docs []task.Result
	)
	for _, view := range views {
		for _, t := range view.Tasks {
			if len(docs) == replaySamples {
				break
			}
			doc, err := sched.LoadResult(t.Task.ID)
			if err != nil {
				return err
			}
			ids = append(ids, t.Task.ID)
			docs = append(docs, doc)
		}
	}
	var resultBytes int64
	for _, id := range ids {
		info, err := os.Stat(filepath.Join(traced.dir, "results", id+".json"))
		if err != nil {
			return err
		}
		resultBytes += info.Size()
	}
	v["datastore.result_kb"] = float64(resultBytes) / float64(len(ids)) / 1e3

	load, err := timeCalls(len(ids), func(i int) error {
		var doc task.Result
		return traced.store.LoadResult(ids[i], &doc)
	})
	if err != nil {
		return err
	}
	v["datastore.load_result_ms"] = median(load)
	load, err = timeCalls(len(ids), func(i int) error {
		_, err := sched.LoadResult(ids[i])
		return err
	})
	if err != nil {
		return err
	}
	v["task.load_result_ms"] = median(load)

	// The upload bodies, parsed once for the dataset replays.
	var (
		bodies [][]byte
		graphs []*graph.Graph
	)
	for _, o := range ops {
		if o.Upload == nil || len(bodies) == diskSamples {
			break
		}
		body := o.Upload.body()
		g, err := formats.Read(bytes.NewReader(body), formats.FormatEdgeList)
		if err != nil {
			return err
		}
		bodies, graphs = append(bodies, body), append(graphs, g)
	}

	diskDir, err := os.MkdirTemp(e.diskRoot, "crdata-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(diskDir)
	diskStore, err := datastore.Open(diskDir)
	if err != nil {
		return err
	}
	logLine := time.Now().UTC().Format(time.RFC3339Nano) + " worker 0: executing " + ops[0].Tasks[0].Algorithm + " on " + ops[0].Tasks[0].Dataset
	for _, target := range []struct {
		store  *datastore.Store
		suffix string
		n      int
	}{{traced.store, "_ms", len(docs)}, {diskStore, "_disk_ms", min(diskSamples, len(docs))}} {
		save, err := timeCalls(target.n, func(i int) error {
			return target.store.SaveResult(fmt.Sprintf("replay-%d", i), docs[i])
		})
		if err != nil {
			return err
		}
		v["datastore.save_result"+target.suffix] = median(save)
		appendLog, err := timeCalls(target.n, func(i int) error {
			return target.store.AppendLog(fmt.Sprintf("replay-%d", i), logLine)
		})
		if err != nil {
			return err
		}
		v["datastore.append_log"+target.suffix] = median(appendLog)
		saveDS, err := timeCalls(len(graphs), func(i int) error {
			return target.store.SaveDataset("replay", graphs[i])
		})
		if err != nil {
			return err
		}
		v["datastore.save_dataset"+target.suffix] = medianOr0(saveDS)
	}
	loadDS, err := timeCalls(len(graphs), func(int) error {
		_, err := traced.store.LoadDataset("replay")
		return err
	})
	if err != nil {
		return err
	}
	v["datastore.load_dataset_ms"] = medianOr0(loadDS)

	// Upload path: parse, build, stats.
	read, err := timeCalls(len(bodies), func(i int) error {
		_, err := formats.Read(bytes.NewReader(bodies[i]), formats.FormatEdgeList)
		return err
	})
	if err != nil {
		return err
	}
	v["formats.read_ms"] = medianOr0(read)
	var build, stats []float64
	for _, g := range graphs {
		b := graph.NewLabeledBuilder()
		g.Edges(func(from, to graph.NodeID) bool {
			b.AddLabeledEdge(g.Label(from), g.Label(to))
			return true
		})
		begin := time.Now()
		if _, err := b.Build(); err != nil {
			return err
		}
		build = append(build, msSince(begin))
		begin = time.Now()
		graph.ComputeStats(g)
		stats = append(stats, msSince(begin))
	}
	v["graph.build_ms"] = medianOr0(build)
	v["graph.stats_ms"] = medianOr0(stats)

	// Catalog generation, the part of set-up the workload's datasets cost.
	var loadMS float64
	for _, name := range w.datasets {
		d, err := r.catalog.Get(name)
		if err != nil {
			return err
		}
		begin := time.Now()
		if _, err := d.Load(); err != nil {
			return err
		}
		loadMS += msSince(begin)
	}
	v["datasets.load_ms"] = loadMS

	// Scheduler.Submit, on the plain stack so that the tasks it starts
	// do not touch the traced one's counters.
	var submit []float64
	for i := 0; i < len(ops) && i < replaySamples; i++ {
		begin := time.Now()
		set, _, err := plain.srv.Scheduler().Submit(ops[i].Tasks)
		took := msSince(begin)
		if err != nil {
			return err
		}
		submit = append(submit, took)
		wait, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err = plain.srv.Scheduler().WaitQuerySet(wait, set)
		cancel()
		if err != nil {
			return err
		}
	}
	v["task.submit_ms"] = medianOr0(submit)
	return nil
}
