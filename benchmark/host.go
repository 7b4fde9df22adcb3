package main

import (
	"math"
	"runtime"
	"time"
)

// benchProcs is P: the f3dd processor budget and the client count of
// the contended workloads.
func benchProcs() int { return min(runtime.NumCPU(), 4) }

// clusterWorkers is W: how many f3dd workers a sharded solve gets.
func clusterWorkers() int { return min(runtime.NumCPU(), 3) }

// The host meter. A shared host speeds up and slows down by tens of
// percent for minutes at a time, which no amount of averaging inside a
// 20-second run removes. The benchmark therefore times two fixed
// kernels of its own throughout every run — at moments when none of its
// clients has a request in flight — and reports its end-to-end metrics
// at the speed of a reference host: rates are multiplied, times
// divided, by the run's slowness index. The kernels never change with
// the program under test, so a move in the index is the host, and a
// move in a normalized metric is the program.
//
// One kernel is compute-bound (eight independent multiply-add chains,
// 16M flops), the other memory-bound (a sum over 32 MiB); the index is
// the geometric mean of their median times over the reference times,
// raised to the workload's sensitivity. Measured on this class of host
// against serve_solo jobs, the blend tracked the jobs' slow-downs
// (r = 0.94) and cut the run-to-run spread of their latency from 15% to
// 3% (README, "Known noise").

const (
	calibFlops = 16e6
	calibBytes = 32 << 20
	// The reference host: the fastest phases seen on the 2-core
	// sandbox the baseline was measured on.
	refFPMs  = 6.0
	refMemMs = 5.5
)

// hostSensitivity is how strongly each workload's metrics follow the
// kernels: the slope of log metric on log kernel time, measured over
// five sessions of ten runs per workload and rounded to a quarter
// (serve_solo 0.8..1.1, serve_mix 0.4..0.6, serve_small 0.5..0.9,
// cluster_solve 0.5..1.0). A P-wide team with four barriers per step
// feels every disturbance of either core; independent one-processor
// jobs and I/O-bound requests feel about half of it. The wrong exponent
// costs accuracy, not correctness: 0 would report the raw values.
var hostSensitivity = map[string]float64{
	"serve_solo":    1.0,
	"serve_mix":     0.5,
	"serve_small":   0.75,
	"cluster_solve": 0.75,
}

type hostMeter struct {
	sensitivity float64
	fpMs, memMs []float64
	stream      []float64
	sink        float64
}

func newHostMeter(workload string) *hostMeter {
	h := &hostMeter{sensitivity: hostSensitivity[workload], stream: make([]float64, calibBytes/8)}
	for i := range h.stream {
		h.stream[i] = float64(i & 7)
	}
	return h
}

// sample times each kernel n times. It must be called only while the
// benchmark has no request in flight, from one goroutine at a time.
func (h *hostMeter) sample(n int) {
	for ; n > 0; n-- {
		t0 := time.Now()
		x := [8]float64{1, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7}
		for i := 0; i < calibFlops/16; i++ {
			for k := range x {
				x[k] = x[k]*0.999999 + 1e-6
			}
		}
		t1 := time.Now()
		s := 0.0
		for _, v := range h.stream {
			s += v
		}
		t2 := time.Now()
		h.sink += s + x[0] + x[7]
		h.fpMs = append(h.fpMs, t1.Sub(t0).Seconds()*1e3)
		h.memMs = append(h.memMs, t2.Sub(t1).Seconds()*1e3)
	}
}

// slowness is the run's host index: 1 on the reference host, above 1 on
// a slower one. 1 when nothing was sampled.
func (h *hostMeter) slowness() float64 {
	if len(h.fpMs) == 0 {
		return 1
	}
	blend := math.Sqrt(median(h.fpMs) / refFPMs * median(h.memMs) / refMemMs)
	return math.Pow(blend, h.sensitivity)
}

// mflops and gbps are the kernels' median rates.
func (h *hostMeter) mflops() float64 { return calibFlops / median(h.fpMs) / 1e3 }
func (h *hostMeter) gbps() float64   { return calibBytes / median(h.memMs) / 1e6 }

// driftPct compares the kernels' blended time over the run's second
// half of samples with the first half.
func (h *hostMeter) driftPct() float64 {
	n := len(h.fpMs)
	if n < 4 {
		return 0
	}
	first := hostMeter{sensitivity: 1, fpMs: h.fpMs[:n/2], memMs: h.memMs[:n/2]}
	second := hostMeter{sensitivity: 1, fpMs: h.fpMs[n/2:], memMs: h.memMs[n/2:]}
	return (second.slowness()/first.slowness() - 1) * 100
}

// normalize rescales an end-to-end metric set to the reference host:
// rates ("higher is better") times the slowness, times divided by it.
// The raw values are kept beside them for the result file.
func (h *hostMeter) normalize(m metricSet) {
	s := h.slowness()
	for name, v := range m {
		d, _ := findDef(name)
		f := 1 / s
		if d.Better == "higher" {
			f = s
		}
		raw := v.Value
		v.Raw = &raw
		v.Value *= f
		if v.Lo != nil {
			lo, hi := *v.Lo*f, *v.Hi*f
			v.Lo, v.Hi = &lo, &hi
		}
	}
}
