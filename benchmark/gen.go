package main

import (
	"fmt"
	"math/rand"
)

// flopsPerPoint is the seed's f3d.FlopsPerPoint(), frozen: delivered
// MFLOPS must stay comparable when a later change recounts the kernels.
const flopsPerPoint = 1148

// jobSpec is one POST /jobs body plus what the benchmark needs to
// account for the job afterwards (not sent: the json:"-" fields).
type jobSpec struct {
	Kind         string  `json:"kind"`
	Name         string  `json:"name"`
	Steps        int     `json:"steps"`
	Dims         string  `json:"dims,omitempty"`
	Pulse        float64 `json:"pulse,omitempty"`
	Points       int     `json:"points,omitempty"`
	Parallelism  int     `json:"parallelism,omitempty"`
	WorkCycles   float64 `json:"work_cycles,omitempty"`
	SerialCycles float64 `json:"serial_cycles,omitempty"`
	SyncEvents   int     `json:"sync_events,omitempty"`

	// Class names the size class for per-class step times.
	Class string `json:"-"`
	// Interior is the f3d zone's interior point count (0 otherwise).
	Interior int `json:"-"`
}

// flops is the job's computed floating-point work: interior points x
// steps x the frozen per-point count (f3d jobs only).
func (j *jobSpec) flops() float64 {
	return float64(j.Interior) * float64(j.Steps) * flopsPerPoint
}

type dims struct {
	j, k, l int
	class   string
}

func f3dSpec(d dims, steps int) jobSpec {
	return jobSpec{
		Kind: "f3d", Steps: steps, Pulse: 0.02,
		Dims:     fmt.Sprintf("%dx%dx%d", d.j, d.k, d.l),
		Class:    d.class,
		Interior: (d.j - 2) * (d.k - 2) * (d.l - 2),
	}
}

func eulerSpec(points, steps int) jobSpec {
	return jobSpec{Kind: "euler", Points: points, Steps: steps}
}

func syntheticSpec(parallelism int, work, serial float64, syncs, steps int) jobSpec {
	return jobSpec{Kind: "synthetic", Parallelism: parallelism, WorkCycles: work,
		SerialCycles: serial, SyncEvents: syncs, Steps: steps}
}

// A workload's job stream is an endless sequence of blocks. Every block
// holds the same multiset of jobs — each combination of the varied
// properties exactly once — and the seed only perturbs the order inside
// each block. Total work per block therefore repeats exactly across
// seeds and runs, which is what lets throughput be compared at a few
// percent; a stream sampled at random would move by its own sampling
// error.

var soloDims = []dims{{33, 27, 25, "small"}, {41, 33, 29, "medium"}, {49, 37, 31, "large"}}

// soloSteps are five step counts spanning the 6..12 of ISSUE 12 with the
// same mean. With three zone sizes that makes 15 latency classes of
// equal weight, so the median falls inside the 8th class and p90 inside
// the 14th; a class count that put either percentile on the boundary
// between two classes (9, 12 and 21 all do) would make it flip between
// them from run to run.
var soloSteps = []int{6, 7, 9, 11, 12}

// soloBlock: every (dims, steps) pair of soloDims x soloSteps.
func soloBlock() []jobSpec {
	var b []jobSpec
	for _, d := range soloDims {
		for _, steps := range soloSteps {
			b = append(b, f3dSpec(d, steps))
		}
	}
	return b
}

var mixDims = []dims{{17, 13, 11, "small"}, {33, 27, 25, "medium"}, {41, 33, 29, "large"}}

// mixBlock: 27 f3d (3 dims x steps 4..12), 12 euler (3 sizes x 4 step
// counts spanning 20..59) and 7 synthetic (parallelism 2..8) jobs:
// 59% / 26% / 15% by count.
func mixBlock() []jobSpec {
	var b []jobSpec
	for _, d := range mixDims {
		for steps := 4; steps <= 12; steps++ {
			b = append(b, f3dSpec(d, steps))
		}
	}
	for _, points := range []int{4096, 8192, 16384} {
		for _, steps := range []int{20, 33, 46, 59} {
			b = append(b, eulerSpec(points, steps))
		}
	}
	for par := 2; par <= 8; par++ {
		b = append(b, syntheticSpec(par, 2e7, 1e6, 4, 5))
	}
	return b
}

// smallReadsEvery is how many jobs a serve_small client runs between
// one GET /metrics plus one GET /healthz.
const smallReadsEvery = 200

// smallBlock: 200 each of the three one-step job kinds.
func smallBlock() []jobSpec {
	var b []jobSpec
	for i := 0; i < smallReadsEvery; i++ {
		b = append(b,
			f3dSpec(dims{9, 9, 9, "tiny"}, 1),
			eulerSpec(64, 1),
			syntheticSpec(4, 1000, 0, 1, 1))
	}
	return b
}

// baseOrderSeed fixes each workload's base job order.
const baseOrderSeed = 20010423

// genBlock returns block number idx of a serve workload's stream for
// the seed: the workload's fixed multiset in its base order — one
// fixed shuffle, the same for every block and seed — with each adjacent
// pair of jobs swapped or not as the seed decides, and job names that
// identify seed, block and position.
//
// The seed perturbs the order instead of reshuffling it because the
// order is itself an input serve_mix responds to: under a full
// reshuffle its median latency moved by +-5% from seed to seed while one
// seed repeated to +-2%. Swapping neighbours, which two clients pick up
// at nearly the same moment anyway, keeps the streams of different
// seeds different without making them different workloads.
func genBlock(workload string, seed int64, idx int) []jobSpec {
	var b []jobSpec
	switch workload {
	case "serve_solo":
		b = soloBlock()
	case "serve_mix":
		b = mixBlock()
	case "serve_small":
		b = smallBlock()
	default:
		panic("genBlock: no job stream for workload " + workload)
	}
	base := rand.New(rand.NewSource(baseOrderSeed))
	base.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	swaps := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	for i := 0; i+1 < len(b); i += 2 {
		if swaps.Intn(2) == 1 {
			b[i], b[i+1] = b[i+1], b[i]
		}
	}
	for i := range b {
		b[i].Name = fmt.Sprintf("s%d-b%d-%d", seed, idx, i)
	}
	return b
}

// clusterCase is the sharded solve every cluster_solve run repeats.
var clusterCase = []string{"-n", "61", "-kmax", "33", "-lmax", "29", "-cuts", "15,30,45", "-pulse", "0.02"}

const (
	clusterSteps       = 16
	clusterWarmupSteps = 2
)

// clusterJobKey is the -job routing key of the n-th solve of a run: a
// fixed-width string, so request sizes do not depend on the seed.
func clusterJobKey(seed int64, n int) string {
	return fmt.Sprintf("b%016x-%04d", uint64(seed), n)
}
