package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// These tests run in tier-1, so none of them asserts a duration.

func mustRefs(t *testing.T) *refs {
	t.Helper()
	r, err := newRefs()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stream renders a workload's operations, upload bodies included, as
// bytes; measured is the sorted multiset of its measured operations.
func stream(t *testing.T, r *refs, w workload, seed int64, warm, n int) (all []byte, measured []string) {
	t.Helper()
	ops, err := w.ops(r, seed, warm, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != warm+n {
		t.Fatalf("%s: %d operations, want %d", w.name, len(ops), warm+n)
	}
	var buf bytes.Buffer
	for i, o := range ops {
		one := string(o.submitBody())
		buf.WriteString(one)
		if o.Upload != nil {
			// The dataset name goes by position in the stream; what is
			// uploaded and asked about it is the operation's own.
			one = o.Tasks[0].Params.Source + string(o.Upload.body())
			buf.WriteString(one)
		}
		if i >= warm {
			measured = append(measured, one)
		}
	}
	sort.Strings(measured)
	return buf.Bytes(), measured
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	r := mustRefs(t)
	for _, w := range workloads {
		a, setA := stream(t, r, w, 7, 4, 20)
		b, _ := stream(t, r, w, 7, 4, 20)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different operation streams", w.name)
		}
		c, setC := stream(t, r, w, 8, 4, 20)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", w.name)
		}
		// Every seed draws its own operations, not another order of
		// the same ones.
		if strings.Join(setA, "") == strings.Join(setC, "") {
			t.Errorf("%s: seeds 7 and 8 measure the same set of operations", w.name)
		}
	}
}

func TestTargetColdNeverRepeatsATarget(t *testing.T) {
	r := mustRefs(t)
	w, _ := workloadByName(targetCold)
	n, warm := w.counts(60) // the longest run the contract allows
	ops, err := w.ops(r, 3, warm, n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, o := range ops {
		target := o.Tasks[0].Params.Target
		if seen[target] {
			t.Fatalf("operation %d repeats target %s", i, target)
		}
		seen[target] = true
	}
}

func TestStratifiedTakesOneFromEachStratum(t *testing.T) {
	ordered := make([]int, 1000)
	for i := range ordered {
		ordered[i] = 5000 - 3*i // any distinct values; position is what counts
	}
	position := map[int]int{}
	for i, v := range ordered {
		position[v] = i
	}
	taken := map[int]bool{}
	for round, k := range []int{37, 10} {
		got, err := stratified(rand.New(rand.NewSource(int64(round))), ordered, k, taken)
		if err != nil {
			t.Fatal(err)
		}
		strata := map[int]bool{}
		for _, v := range got {
			for i := 0; i < k; i++ {
				if at := position[v]; at >= i*len(ordered)/k && at < (i+1)*len(ordered)/k {
					strata[i] = true
				}
			}
		}
		if len(got) != k || len(strata) != k {
			t.Errorf("round %d: %d items from %d of %d strata", round, len(got), len(strata), k)
		}
	}
	if len(taken) != 47 {
		t.Errorf("%d items taken over both rounds, want 47 distinct ones", len(taken))
	}
	// A stratum with nothing left is an error, not a repeat.
	if _, err := stratified(rand.New(rand.NewSource(1)), ordered[:4], 2, map[int]bool{ordered[0]: true, ordered[1]: true}); err == nil {
		t.Error("an exhausted stratum did not fail")
	}
}

func TestCounts(t *testing.T) {
	for _, w := range workloads {
		n, warm := w.counts(20)
		if n/blocks < 40 {
			t.Errorf("%s: %d operations leave fewer than 40 per block", w.name, n)
		}
		if warm < 1 || warm >= n {
			t.Errorf("%s: warm-up of %d operations for %d measured", w.name, warm, n)
		}
		if w.name == uploadCompare && warm < 2*uploadNames {
			t.Errorf("upload-compare: warm-up of %d does not upload every name twice", warm)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBlockTimings(t *testing.T) {
	// Five blocks of the same four operations taking 4.5 CPU-ms each.
	// The host slowed block 1 to half speed and block 3 tenfold; the
	// meter saw the first and missed the second.
	var bs []block
	for b := 0; b < blocks; b++ {
		scale, slow := 1.0, 1.0
		switch b {
		case 1:
			scale, slow = 2, 2
		case 3:
			scale = 10
		}
		bs = append(bs, block{latMS: []float64{1 * scale, 4 * scale, 2 * scale, 3 * scale}, cpuMS: 18 * scale, slow: slow})
	}
	corrected, raw := blockTimings(bs)
	// One noisy block cannot own a median of five, corrected or not.
	want := timings{p50MS: 2.5, p90MS: 3.7, opsPerS: 400, cpuMSPerOp: 4.5}
	for name, got := range map[string]timings{"corrected": corrected, "raw": raw} {
		if math.Abs(got.p50MS-want.p50MS) > 1e-12 || math.Abs(got.p90MS-want.p90MS) > 1e-12 ||
			math.Abs(got.opsPerS-want.opsPerS) > 1e-9 || math.Abs(got.cpuMSPerOp-want.cpuMSPerOp) > 1e-12 {
			t.Errorf("%s timings = %+v, want %+v", name, got, want)
		}
	}
	// A run the host slowed throughout reads slow as measured, and as
	// on a quiet box once corrected.
	for b := range bs {
		bs[b] = block{latMS: []float64{3, 12, 6, 9}, cpuMS: 54, slow: 3}
	}
	corrected, raw = blockTimings(bs)
	if math.Abs(raw.p50MS-7.5) > 1e-12 || math.Abs(raw.opsPerS-400.0/3) > 1e-9 {
		t.Errorf("raw timings of the slowed run = %+v", raw)
	}
	if math.Abs(corrected.p50MS-2.5) > 1e-12 || math.Abs(corrected.opsPerS-400) > 1e-9 || math.Abs(corrected.cpuMSPerOp-4.5) > 1e-12 {
		t.Errorf("corrected timings of the slowed run = %+v", corrected)
	}
}

func TestSpeedMeterSlowdown(t *testing.T) {
	// Forty readings: the compute half takes 4 ms and the system half
	// 1 ms when quiet; over readings 20–29 the host slows the first by
	// 60% and the second by 30%.
	m := &speedMeter{}
	for i := 0; i < 40; i++ {
		c, s := 4.0, 1.0
		if i >= 20 && i < 30 {
			c, s = 6.4, 1.3
		}
		m.compute, m.system = append(m.compute, c), append(m.system, s)
	}
	for _, c := range []struct {
		mix      float64
		from, to int
		want     float64
	}{
		{0, 0, 20, 1}, {1, 0, 20, 1},
		{0, 20, 30, 1.3}, {1, 20, 30, 1.6}, {0.25, 20, 30, 1.375},
		{1, 20, 40, 1.3}, // half the stretch was slow
	} {
		if got := m.slowdown(c.mix, c.from, c.to); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("slowdown(mix %v, readings %d–%d) = %v, want %v", c.mix, c.from, c.to, got, c.want)
		}
	}
	// The quiet level is the mean of the fastest twentieth, not the
	// single fastest reading.
	if got := quiet([]float64{9, 1, 3, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}); got != 2 {
		t.Errorf("quiet = %v, want 2", got)
	}
}

func TestParseProcStat(t *testing.T) {
	const stat = "4242 (cr server) (x)) S 1 4242 4242 0 -1 4194560 2077 0 0 0 131 29 0 0 20 0 7 0 1234 1824116000 4011 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	ticks, err := parseStatCPUTicks(stat)
	if err != nil || ticks != 160 {
		t.Errorf("ticks = %d, %v; want 160", ticks, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a 12"} {
		if _, err := parseStatCPUTicks(bad); err == nil {
			t.Errorf("parseStatCPUTicks(%q) did not fail", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	const status = "Name:\tcrserver\nVmPeak:\t 1824116 kB\nVmHWM:\t   43012 kB\nVmRSS:\t   41000 kB\nThreads:\t7\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 43012 {
		t.Errorf("VmHWM = %d, %v; want 43012", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key did not fail")
	}
	if _, err := parseStatusKB("VmHWM:\t12 pages\n", "VmHWM"); err == nil {
		t.Error("a line without kB did not fail")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	//   a [10,40]   with child a1 [15,25]
	//   b [30,60]   overlaps a
	//   c [90,120]  sticks out of root
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "x.a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "y.a1", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "x.b", Start: 30, End: 60},
		{ID: 4, Parent: 0, Name: "z.c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 100 - (50 + 10), // [10,60] and [90,100]
		1: 30 - 10,
		2: 10,
		3: 30,
		4: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := opCoverage(spans, self, 0); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
	if l := spans[2].layer(); l != "y" {
		t.Errorf("layer = %q, want y", l)
	}
}

func TestValidateView(t *testing.T) {
	o := op{Tasks: []task.Spec{{Algorithm: "ppr"}}}
	view := func(state task.State, top ...ranking.Entry) compareView {
		var tv taskView
		tv.Task.State = state
		tv.Result = &struct {
			Top []ranking.Entry `json:"top"`
		}{top}
		return compareView{Done: true, Tasks: []taskView{tv}}
	}
	known := func(label string) bool { return label != "ghost" }
	e := func(label string, score float64) ranking.Entry { return ranking.Entry{Label: label, Score: score} }

	if err := validateView(o, view(task.StateDone, e("a", 0.5), e("b", 0.5), e("c", 0.1)), known); err != nil {
		t.Errorf("a valid view was rejected: %v", err)
	}
	for name, v := range map[string]compareView{
		"failed task":      view(task.StateFailed, e("a", 1)),
		"empty top":        view(task.StateDone),
		"ascending":        view(task.StateDone, e("a", 0.1), e("b", 0.5)),
		"NaN score":        view(task.StateDone, e("a", math.NaN())),
		"infinite score":   view(task.StateDone, e("a", math.Inf(1))),
		"zero score":       view(task.StateDone, e("a", 0)),
		"unknown label":    view(task.StateDone, e("ghost", 1)),
		"wrong task count": {Done: true},
	} {
		if err := validateView(o, v, known); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	pending := view(task.StateDone, e("a", 1))
	pending.Tasks[0].Result = nil
	if pending.terminal() {
		t.Error("a done task without its result counts as terminal")
	}
}

// TestAbsorbingPPR checks the dangling-convention conversion the
// accuracy check rests on: power iteration returns dangling mass to
// the seed, bippr absorbs it, and absorbingPPR maps the first onto the
// second. The reference is bippr with the residuals pushed to nothing.
func TestAbsorbingPPR(t *testing.T) {
	// 0→1, 0→2, 1→2, 2→0, 2→3, 1→3; node 3 is dangling.
	g, err := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 2, To: 3}, {From: 1, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.DanglingNodes()) != 1 {
		t.Fatalf("want one dangling node, have %v", g.DanglingNodes())
	}
	const alpha = 0.85
	for s := graph.NodeID(0); s < 3; s++ {
		res, err := pagerank.Personalized(context.Background(), g, pagerank.Params{Alpha: alpha, Tol: 1e-15, MaxIter: 100000, Seeds: []graph.NodeID{s}})
		if err != nil {
			t.Fatal(err)
		}
		for tgt := graph.NodeID(0); tgt < 4; tgt++ {
			exact, err := bippr.Bidirectional(context.Background(), g, s, tgt, bippr.Params{Alpha: alpha, RMax: 1e-15, Walks: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := absorbingPPR(g, res.Scores, alpha, tgt); math.Abs(got-exact.Value) > 1e-9 {
				t.Errorf("π(%d,%d): converted power iteration %v, absorbing reference %v", s, tgt, got, exact.Value)
			}
		}
	}
}

// TestTracedOpTilesTheOperation drives a few operations through the
// decorated in-process stack and checks the shape of the span tree.
func TestTracedOpTilesTheOperation(t *testing.T) {
	r := mustRefs(t)
	w, _ := workloadByName(pairWarm)
	ops, err := w.ops(r, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	st, err := newStack(t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if err := st.waitPrewarm(); err != nil {
		t.Fatal(err)
	}
	for i, o := range ops {
		if _, err := tracedOp(st, rec, r, i, o); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	self := selfTimes(rec.spans)
	perOp := map[int]map[string]int{}
	for _, s := range rec.spans {
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]int{}
		}
		perOp[s.Op][s.Name]++
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Name == "op" {
			if c := opCoverage(rec.spans, self, s.ID); !(c > 0 && c <= 1) {
				t.Errorf("op %d: coverage %v outside (0,1]", s.Op, c)
			}
		} else if s.Parent < 0 || rec.spans[s.Parent].Op != s.Op {
			t.Errorf("span %d (%s) has no parent within its operation", s.ID, s.Name)
		}
	}
	if len(perOp) != len(ops) {
		t.Fatalf("spans for %d operations, ran %d", len(perOp), len(ops))
	}
	for opID, names := range perOp {
		for _, name := range []string{"op", "server.submit", "task.dispatch", "bippr.pair", "bippr.index", "task.finish", "ranking.top", "client.poll_lag", "server.poll"} {
			if names[name] != 1 {
				t.Errorf("op %d has %d %s spans, want 1", opID, names[name], name)
			}
		}
	}
}

// TestContractFileMatchesTheCode keeps BENCHMARK.json, which the
// driver reads, in step with the definitions the program reports by.
func TestContractFileMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code has %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, file []metric, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(file), kind, len(code))
		}
		for i, def := range code {
			m := file[i]
			if m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code has %+v", kind, i, m, def)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != def.bound || def.bound <= 0 || def.bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json %v, in the code %v (must be in (0, 0.25])", def.name, m.Bound, def.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", def.name)
			}
		}
	}
	check("end-to-end", contract.EndToEnd, endToEnd, true)
	check("per-layer", contract.PerLayer, perLayer, false)
	if contract.RunSeconds < 1 || contract.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", contract.RunSeconds)
	}
	if len(contract.Paths) != 1 || contract.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", contract.Paths)
	}
}
