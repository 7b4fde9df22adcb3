package check

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/f3d"
	"repro/internal/parloop"
	"repro/internal/sched"
)

// clusterKernels adapt the sharded-solve engine to the conformance
// harness, binding the paper's unchanged-convergence claim to the
// distributed case: a multi-zone solve sharded over any worker count
// must reproduce the single-node residual history bitwise — and must
// keep reproducing it when a worker dies mid-solve and the engine
// fails over. The matrix's team-size axis is reinterpreted as the
// worker-daemon count (the shard plan is the plateau rule). The shards run the production (tuned) kernels serially
// inside each worker while the single-node reference runs the scalar
// kernels, so the cells prove the distributed tuned solve against
// scalar-serial bits.
func clusterKernels() []Kernel {
	ks := []Kernel{}
	for _, loss := range []bool{false, true} {
		name := "cluster-sharded"
		if loss {
			name = "cluster-failover"
		}
		loss := loss
		ks = append(ks, Kernel{
			Name: name, N: 20, MinN: 8,
			Serial: func(n int) []float64 {
				return runClusterSerial(n)
			},
			Parallel: func(t *parloop.Team, spec Spec) []float64 {
				return runClusterSharded(spec.N, t.Workers(), loss)
			},
		})
	}
	return ks
}

// clusterSteps is the number of lockstep steps each conformance solve
// advances.
const clusterSteps = 4

// clusterCase builds the conformance case: a n×6×5 box stacked into
// three zones along J (cuts clamped so every zone keeps at least four
// J-planes, which holds down to n = 8, the kernels' MinN), as the
// config of the coupled solve.
func clusterCase(n int) f3d.Config {
	c1 := n / 3
	if c1 < 2 {
		c1 = 2
	}
	c2 := 2 * n / 3
	if c2 > n-4 {
		c2 = n - 4
	}
	if c2 < c1+2 {
		c2 = c1 + 2
	}
	c, ifaces := f3d.StackAlongJ("chk", n, 6, 5, []int{c1, c2})
	cfg := f3d.DefaultConfig(c)
	cfg.Interfaces = ifaces
	return cfg
}

// clusterPulse is the conformance initial-condition amplitude.
const clusterPulse = 0.02

// runClusterSerial runs the single-node reference and returns the
// observable output: per-step residual, max-delta and flops.
func runClusterSerial(n int) []float64 {
	s, err := f3d.NewReferenceSolver(clusterCase(n))
	if err != nil {
		panic(fmt.Sprintf("check: cluster reference solver: %v", err))
	}
	defer s.Close()
	f3d.InitPulse(s, clusterPulse)
	out := make([]float64, 0, 3*clusterSteps)
	for i := 0; i < clusterSteps; i++ {
		st := s.Step()
		out = append(out, st.Residual, st.MaxDelta, st.Flops)
	}
	return out
}

// lossyClient fails its worker starting with a fixed lockstep call —
// the deterministic mid-solve worker loss of the failover kernel.
type lossyClient struct {
	cluster.WorkerClient
	calls int
}

func (l *lossyClient) StepShard(req cluster.StepRequest) (cluster.StepResponse, error) {
	l.calls++
	if l.calls > 2 {
		return cluster.StepResponse{}, cluster.ErrWorkerDown
	}
	return l.WorkerClient.StepShard(req)
}

// runClusterSharded shards the case over `workers` in-process daemons
// and returns the same observable output as the serial reference. With
// loss set (and at least two workers, so survivors exist), one worker
// dies after its second lockstep call and the engine must fail over.
func runClusterSharded(n, workers int, loss bool) []float64 {
	coord := cluster.New(cluster.Config{})
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("w%02d", i)
		var client cluster.WorkerClient = cluster.NewLocalWorker(id, sched.Config{})
		if loss && workers >= 2 && i == 0 {
			client = &lossyClient{WorkerClient: client}
		}
		if err := coord.Register(id, client); err != nil {
			panic(fmt.Sprintf("check: register: %v", err))
		}
	}
	res, err := coord.Solve(cluster.SolveSpec{
		Job: "check", Config: clusterCase(n), PulseAmp: clusterPulse, Steps: clusterSteps,
	})
	if err != nil {
		panic(fmt.Sprintf("check: sharded solve (%d workers, loss=%v): %v", workers, loss, err))
	}
	out := make([]float64, 0, 3*clusterSteps)
	for _, st := range res.History {
		out = append(out, st.Residual, st.MaxDelta, st.Flops)
	}
	return out
}
