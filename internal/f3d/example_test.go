package f3d_test

import (
	"fmt"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/parloop"
)

// Run the cache-tuned solver in parallel and confirm it converges and
// matches the serial run exactly — the library's one-paragraph
// quickstart.
func Example() {
	cfg := f3d.DefaultConfig(grid.Single(11, 10, 9))

	serial, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
	if err != nil {
		panic(err)
	}
	defer serial.Close()

	team := parloop.NewTeam(4)
	defer team.Close()
	parallel, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team})
	if err != nil {
		panic(err)
	}
	defer parallel.Close()

	f3d.InitPulse(serial, 0.05)
	f3d.InitPulse(parallel, 0.05)
	h, err := f3d.RunToSteady(serial, 1e-2, 200)
	if err != nil {
		panic(err)
	}
	for i := 0; i < h.Steps(); i++ {
		parallel.Step()
	}

	fmt.Println("converged:", h.Converged)
	fmt.Println("serial == parallel (bitwise):", f3d.MaxPointwiseDiff(serial, parallel) == 0)
	// Output:
	// converged: true
	// serial == parallel (bitwise): true
}
