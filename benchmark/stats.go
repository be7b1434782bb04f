package main

import (
	"math"
	"sort"
)

// blocks is how many equal-count stretches a run's operations are cut
// into; every headline timing is the median of the per-block values,
// so one noisy stretch cannot own the figure.
const blocks = 5

// percentile returns the q-quantile (0 ≤ q ≤ 1) of values by linear
// interpolation between closest ranks. It does not modify values.
// An empty input yields NaN.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// block is one stretch of a run's measured phase.
type block struct {
	latMS []float64 // the latencies of its successful operations, in arrival order
	cpuMS float64   // server CPU time spent during it
	slow  float64   // how much slower than quiet the box was (speedMeter.slowdown)
}

// timings are the four clock-derived figures of a run.
type timings struct{ p50MS, p90MS, opsPerS, cpuMSPerOp float64 }

// blockTimings returns, for each figure, the median over the blocks of
// the per-block value — the block's median and p90 latency, its
// operations ÷ the summed time they took (what a closed loop with no
// think time sustains), its server CPU-ms per operation — once with
// each block's value corrected for the box's speed during that block,
// once as measured.
func blockTimings(bs []block) (corrected, raw timings) {
	var p50, p90, rate, cpu [2][]float64
	for _, b := range bs {
		n := float64(len(b.latMS))
		for i, slow := range []float64{b.slow, 1} {
			p50[i] = append(p50[i], median(b.latMS)/slow)
			p90[i] = append(p90[i], percentile(b.latMS, 0.9)/slow)
			rate[i] = append(rate[i], 1e3/mean(b.latMS)*slow)
			cpu[i] = append(cpu[i], b.cpuMS/n/slow)
		}
	}
	at := func(i int) timings {
		return timings{median(p50[i]), median(p90[i]), median(rate[i]), median(cpu[i])}
	}
	return at(0), at(1)
}
