package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// coldBoots is how many times set-up is performed; setup_s is the
// median, and the last boot's server is the one measured.
const coldBoots = 3

// measuredReadings is about how many reference readings (reference.go)
// are spread over the measured phase, 2 ms each: one before every few
// operations, or a few before every operation.
const measuredReadings = 600

// overrunFactor caps the measured phase at overrunFactor × -seconds.
// The phase is a fixed operation count; past the cap the remaining
// operations are counted as failed, so a server that stalls shows as
// failures rather than as a benchmark that never returns.
const overrunFactor = 8

// env is where a run builds, boots and writes.
type env struct {
	bin      string // crserver binary
	dataRoot string // parent of the per-boot data directories
	diskRoot string // a directory on the real disk, for the fsync-cost replay
	outDir   string // server logs, trace.json
}

// opFailure records why an operation failed, for the report.
type opFailure struct {
	index int
	err   error
}

// e2eResult is one workload's untraced, client-observed run.
type e2eResult struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	shed      int // failed operations whose submit was refused with 429
	samples   int
	failures  []opFailure // the first few, for diagnosis

	// The end-to-end metrics. The timing ones are corrected for the
	// box's speed (reference.go); raw holds them as the clock gave them.
	setupS float64
	timings
	rssMB  float64
	diskMB float64
	raw    struct {
		setupS float64
		timings
	}
	// slowCompute and slowSystem say how much slower than in the run's
	// quiet moments the two halves of the reference unit ran during
	// the measured phase; readings is how many there were in the run.
	slowCompute, slowSystem float64
	readings                int

	// Diagnostics the traced run reports as per-layer metrics.
	submitRTTMS float64 // median POST /api/tasks round trip
	pollsPerOp  float64
	respKB      float64
	filesPerOp  float64
	setupBoots  []float64 // uncorrected, one per boot
	canary      canaryPair
	measuredFor time.Duration
}

func (r *e2eResult) fail(index int, err error) {
	r.failed++
	var refused *statusError
	if errors.As(err, &refused) && refused.code == http.StatusTooManyRequests {
		r.shed++
	}
	if len(r.failures) < 5 {
		r.failures = append(r.failures, opFailure{index, err})
	}
}

// setupReadings is about how many reference readings are spread over
// one boot's warm-up operations; ten more precede the spawn and five
// follow the last operation. A boot lasts a second: short enough for
// one slow spell of the host to cover half of it, so it is sampled
// more densely than the measured phase.
const setupReadings = 60

// readingsBefore says how many reference readings to take before
// operation i of n so that about total are spread evenly over them.
func readingsBefore(i, n, total int) int {
	if n >= total {
		if i%(n/total) == 0 {
			return 1
		}
		return 0
	}
	return total / n
}

// bootAndWarm is one cold set-up: spawn crserver over a fresh data
// dir, wait for its pre-warm, run the warm-up operations, and confirm
// the workload's datasets are resident. Warm-up is inside set-up so
// that work moved into boot or pre-warm shows in setup_s. It returns
// the set-up's duration without the time the meter's readings took.
func bootAndWarm(ctx context.Context, e env, w workload, r *refs, m *speedMeter, warm []op, logName string) (*serverProc, float64, error) {
	for i := 0; i < 10; i++ {
		m.read()
	}
	begin, spent := time.Now(), m.spent
	srv, err := startServer(ctx, e.bin, e.dataRoot, filepath.Join(e.outDir, logName))
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*serverProc, float64, error) {
		srv.stop()
		srv.echoLog(os.Stderr)
		return nil, 0, err
	}
	if err := srv.waitReady(ctx); err != nil {
		return fail(err)
	}
	t := srv.transport()
	for i, o := range warm {
		for k := readingsBefore(i, len(warm), setupReadings); k > 0; k-- {
			m.read()
		}
		if err := runAndValidate(t, r, o, nil); err != nil {
			return fail(fmt.Errorf("warm-up op %d: %w", i, err))
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
	}
	if ok, err := srv.loaded(w.datasets); err != nil || !ok {
		return fail(fmt.Errorf("datasets %v not resident after warm-up (err: %v)", w.datasets, err))
	}
	took := time.Since(begin) - (m.spent - spent)
	for i := 0; i < 5; i++ {
		m.read()
	}
	return srv, took.Seconds(), nil
}

// runAndValidate performs one op and its structural validation. out,
// when non-nil, receives what the client observed.
func runAndValidate(t transport, r *refs, o op, out *opOutcome) error {
	var uploadBody []byte
	if o.Upload != nil {
		uploadBody = o.Upload.body()
	}
	got, err := runOp(t, o, o.submitBody(), uploadBody)
	if out != nil {
		*out = got
	}
	if err != nil {
		return err
	}
	resolvable, err := r.resolver(o)
	if err != nil {
		return err
	}
	return validateView(o, got.view, resolvable)
}

// runE2E measures one workload against a real crserver subprocess,
// untraced. boots is coldBoots for a reported run; the traced run
// uses one boot for its short wire-time reading.
func runE2E(ctx context.Context, e env, w workload, r *refs, seed int64, n, warm, boots int, limit time.Duration) (*e2eResult, error) {
	ops, err := w.ops(r, seed, warm, n)
	if err != nil {
		return nil, err
	}
	res := &e2eResult{workload: w.name, seed: seed, attempted: n}
	res.canary.before = runCanary(e.dataRoot)
	meter := newSpeedMeter(e.dataRoot)

	var (
		srv      *serverProc
		bootFrom []int // each boot's first reading
	)
	for boot := 1; boot <= boots; boot++ {
		bootFrom = append(bootFrom, meter.mark())
		var took float64
		srv, took, err = bootAndWarm(ctx, e, w, r, meter, ops[:warm], fmt.Sprintf("%s-boot%d.log", w.name, boot))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, boot, err)
		}
		res.setupBoots = append(res.setupBoots, took)
		if boot < boots {
			srv.stop()
		}
	}
	defer srv.stop()
	bootFrom = append(bootFrom, meter.mark())

	type kept struct {
		index int
		view  compareView
	}
	var (
		latMS     []float64
		submitMS  []float64
		polls     int
		respBytes int
		refChecks []kept
		t         = srv.transport()
		// A block's operations, reference readings and server CPU time
		// are those between its boundary and the next block's.
		blockAt  = make([]int, 0, blocks+1) // index into latMS
		blockRef = make([]int, 0, blocks+1) // the meter's mark
		blockCPU = make([]float64, 0, blocks+1)
	)
	boundary := func() error {
		cpu, err := srv.cpuSeconds()
		blockAt, blockRef, blockCPU = append(blockAt, len(latMS)), append(blockRef, meter.mark()), append(blockCPU, cpu)
		return err
	}
	_, files0, err := dirUsage(srv.dataDir)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for i, o := range ops[warm:] {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Since(begin) > limit {
			res.fail(i, fmt.Errorf("measured phase passed %s; %d operations not attempted", limit, n-i))
			res.failed += n - i - 1
			break
		}
		if i == len(blockAt)*n/blocks {
			if err := boundary(); err != nil {
				return nil, err
			}
		}
		for k := readingsBefore(i, n, measuredReadings); k > 0; k-- {
			meter.read()
		}
		var out opOutcome
		if err := runAndValidate(t, r, o, &out); err != nil {
			res.fail(i, err)
			continue
		}
		latMS = append(latMS, ms(out.end.Sub(out.start)))
		submitMS = append(submitMS, ms(out.submitRTT))
		polls += out.polls
		respBytes += out.respBytes
		if i%referenceEvery == 0 {
			refChecks = append(refChecks, kept{i, out.view})
		}
	}
	res.measuredFor = time.Since(begin)
	if err := boundary(); err != nil {
		return nil, err
	}
	meter.read()
	if res.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	diskBytes, files1, err := dirUsage(srv.dataDir)
	if err != nil {
		return nil, err
	}

	// Server-side figures are read; the remaining checks recompute
	// results in this process and no longer disturb a measurement.
	for _, k := range refChecks {
		if err := checkReference(r, ops[warm+k.index], k.view); err != nil {
			res.fail(k.index, fmt.Errorf("reference check: %w", err))
		}
	}
	if w.name == pairWarm {
		step := max(1, len(refChecks)/pairSamples)
		for i := 0; i < len(refChecks) && i/step < pairSamples; i += step {
			k := refChecks[i]
			served := k.view.Tasks[0].Result.Top[0].Score
			if err := checkPairAccuracy(r, ops[warm+k.index].Tasks[0], served); err != nil {
				res.fail(k.index, fmt.Errorf("accuracy check: %w", err))
			}
		}
	}
	res.canary.after = runCanary(e.dataRoot)

	res.samples = len(latMS)
	res.readings = meter.mark()
	res.diskMB = float64(diskBytes) / 1e6
	res.filesPerOp = float64(files1-files0) / float64(n)
	if res.samples < blocks || len(blockAt) != blocks+1 {
		return res, nil // too few operations succeeded for a timing
	}
	res.slowCompute, res.slowSystem = meter.slowdowns(blockRef[0], meter.mark())

	var setup []float64
	for i, took := range res.setupBoots {
		setup = append(setup, took/meter.slowdown(w.refMix, bootFrom[i], bootFrom[i+1]))
	}
	res.setupS, res.raw.setupS = median(setup), median(res.setupBoots)

	bs := make([]block, blocks)
	for b := range bs {
		bs[b] = block{
			latMS: latMS[blockAt[b]:blockAt[b+1]],
			cpuMS: (blockCPU[b+1] - blockCPU[b]) * 1e3,
			// A block's readings include the one that opens the next block.
			slow: meter.slowdown(w.refMix, blockRef[b], blockRef[b+1]+1),
		}
	}
	res.timings, res.raw.timings = blockTimings(bs)

	res.submitRTTMS = median(submitMS)
	res.pollsPerOp = float64(polls) / float64(res.samples)
	res.respKB = float64(respBytes) / float64(res.samples) / 1e3
	return res, nil
}
