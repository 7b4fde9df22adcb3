package parloop

// Sections runs the given tasks concurrently on the team and returns
// when all have completed: the OpenMP "sections" construct, one
// synchronization event. Tasks are dealt round-robin (task i runs on
// worker i mod Workers()); with fewer tasks than workers the surplus
// workers idle through the region.
//
// This is the coarse-grained complement to loop-level parallelism —
// heterogeneous phases (or independent zones) side by side, the
// building block of the multi-level-parallelism style the paper's §8
// discusses (Taft's MLP).
func (t *Team) Sections(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	t.fork(func(w int) {
		for i := w; i < len(tasks); i += t.workers {
			tasks[i]()
		}
	})
}
