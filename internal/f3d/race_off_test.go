//go:build !race

package f3d

// raceEnabled reports whether the Go race detector is active.
const raceEnabled = false
