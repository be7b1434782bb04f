package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The speed reference.
//
// The box is a small VM on a shared host. For seconds to minutes at a
// time the host slows everything that runs on it — client latency,
// set-up, and the server's own CPU-ms per operation together — by 20 to
// 70%, and two runs of one binary made a few minutes apart then differ
// by more than any change this benchmark is meant to judge. No
// statistic taken over the operations alone removes that: the whole
// run is slow.
//
// So the load generator interleaves the operations with a fixed piece
// of work of its own, the reference unit, which only the box's speed
// can change: a reading before every few operations, while the server
// is idle. A stretch of operations is then reported at the speed the
// box ran the unit at its quietest in this run: time × (quiet unit
// time ÷ unit time around that stretch). The uncorrected figures are
// printed next to the corrected ones.
//
// The unit has two halves, because the host does not slow all code
// alike: user-mode computation (decoding, sorting and encoding a JSON
// document; a sparse matrix-vector product) and system calls (write,
// rename and read of small files in the data root). Over a run one
// half may lose a tenth more than the other, either way round. A
// workload is corrected with the blend of the two slowdowns that its
// own timings follow best (refMix in workload.go; how it was fitted is
// in the README).

// speedMeter takes the readings of one run and answers how much slower
// than at its quietest the box was over any stretch of them.
type speedMeter struct {
	dir string // where the system half writes; the data root
	// compute and system hold, reading by reading, how many ms each
	// half of the unit took.
	compute, system []float64
	spent           time.Duration // total time spent taking readings

	doc    []byte // the compute half's JSON document
	matrix refMatrix
	file   []byte
}

// refMatrix is a fixed random sparse matrix in CSR form, 2^15 rows of
// 8 entries, and the two vectors a power iteration swaps.
type refMatrix struct {
	cols []int32
	x, y []float64
}

const (
	refRows   = 1 << 15
	refDegree = 8
)

type refDoc struct {
	ID    string       `json:"id"`
	Items []refDocItem `json:"items"`
}

type refDocItem struct {
	Label string  `json:"label"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
}

func newSpeedMeter(dir string) *speedMeter {
	m := &speedMeter{dir: dir, file: make([]byte, 2048)}
	doc := refDoc{ID: "reference"}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 200; i++ {
		doc.Items = append(doc.Items, refDocItem{
			Label: fmt.Sprintf("en:Article %04d", next()%10000), Score: 1 / float64(i+1), Rank: i,
		})
	}
	var err error
	if m.doc, err = json.Marshal(doc); err != nil {
		panic(err) // strings and numbers
	}
	m.matrix = refMatrix{cols: make([]int32, refRows*refDegree), x: make([]float64, refRows), y: make([]float64, refRows)}
	for i := range m.matrix.cols {
		m.matrix.cols[i] = int32(next() % refRows)
	}
	return m
}

// refSink keeps the compiler from deleting the compute half.
var refSink float64

// read runs the reference unit once, about 2 ms on a quiet box: the
// host's slow spells come and go within tens of milliseconds, so many
// short readings say more about a stretch of time than a few long ones.
func (m *speedMeter) read() {
	begin := time.Now()
	for i := 0; i < 4; i++ {
		var doc refDoc
		if err := json.Unmarshal(m.doc, &doc); err != nil {
			panic(err) // m.doc is this process's own encoding
		}
		sort.Slice(doc.Items, func(a, b int) bool { return doc.Items[a].Label < doc.Items[b].Label })
		out, err := json.Marshal(doc)
		if err != nil {
			panic(err)
		}
		refSink += float64(len(out))
	}
	mx := &m.matrix
	for i := range mx.x {
		mx.x[i] = 1.0 / refRows
	}
	for pass := 0; pass < 2; pass++ {
		for row := range mx.y {
			sum := 0.0
			for _, col := range mx.cols[row*refDegree : (row+1)*refDegree] {
				sum += mx.x[col]
			}
			mx.y[row] = 0.15/refRows + 0.85*sum/refDegree
		}
		mx.x, mx.y = mx.y, mx.x
	}
	refSink += mx.x[0]
	computed := time.Now()

	// An unwritable data root fails the run elsewhere, loudly; here a
	// failed call only makes the reading a little shorter.
	tmp, dst := filepath.Join(m.dir, ".reference-tmp"), filepath.Join(m.dir, ".reference")
	for i := 0; i < 20; i++ {
		_ = os.WriteFile(tmp, m.file, 0o644)
		_ = os.Rename(tmp, dst)
		_, _ = os.ReadFile(dst)
	}
	_ = os.Remove(dst)
	end := time.Now()

	m.compute = append(m.compute, ms(computed.Sub(begin)))
	m.system = append(m.system, ms(end.Sub(computed)))
	m.spent += end.Sub(begin)
}

// mark returns the index the next reading will get.
func (m *speedMeter) mark() int { return len(m.compute) }

// quietShare is the part of a run's readings, the fastest ones, whose
// mean stands for the quiet box.
const quietShare = 0.05

// quiet returns the mean of the fastest quietShare of values.
func quiet(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := max(1, int(quietShare*float64(len(s))))
	return mean(s[:n])
}

// slowdowns returns how much slower than in the run's quiet moments
// each half of the unit ran over readings [from, to).
func (m *speedMeter) slowdowns(from, to int) (compute, system float64) {
	return mean(m.compute[from:to]) / quiet(m.compute), mean(m.system[from:to]) / quiet(m.system)
}

// slowdown returns the factor by which the box slowed a workload of
// sensitivity mix over readings [from, to): the system half's
// slowdown, plus mix of the way to the compute half's.
func (m *speedMeter) slowdown(mix float64, from, to int) float64 {
	compute, system := m.slowdowns(from, to)
	return system + mix*(compute-system)
}

// --- the issue's noise canary ---

// canaryReading is the load generator's before-and-after self-check: a
// fixed integer spin and a fixed write+rename probe in the data root.
// Diagnostic only — no retry, no effect on any metric. On this box it
// says little (a dependent integer chain hardly notices a busy host;
// the reference unit above is what does), but a drift here means the
// run is not to be trusted at all.
type canaryReading struct {
	spinMS float64
	fsMS   float64
}

type canaryPair struct{ before, after canaryReading }

// drift is the larger of the probes' after ÷ before ratios.
func (p canaryPair) drift() float64 {
	d := p.after.spinMS / p.before.spinMS
	if p.before.fsMS > 0 {
		d = max(d, p.after.fsMS/p.before.fsMS)
	}
	return d
}

// canaryWarn is the drift above which a run prints a visible warning.
const canaryWarn = 1.10

var canarySink uint64

func runCanary(dir string) canaryReading {
	var r canaryReading
	// Best of three: the probe asks how fast the box can go right now,
	// not how unlucky one scheduling quantum was.
	for try := 0; try < 3; try++ {
		begin := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink += x
		if ms := msSince(begin); try == 0 || ms < r.spinMS {
			r.spinMS = ms
		}
		begin = time.Now()
		if err := fsProbe(dir); err != nil {
			continue // an unwritable root fails the run elsewhere, loudly
		}
		if ms := msSince(begin); r.fsMS == 0 || ms < r.fsMS {
			r.fsMS = ms
		}
	}
	return r
}

// fsProbe writes and renames 512 small files, the datastore's own
// write pattern.
func fsProbe(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".canary-tmp")
	dst := filepath.Join(dir, ".canary")
	defer os.Remove(dst)
	buf := make([]byte, 4096)
	for i := 0; i < 512; i++ {
		if err := os.WriteFile(tmp, buf, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, dst); err != nil {
			return err
		}
	}
	return nil
}

// ms converts a duration to the milliseconds every timing is reported in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
