//go:build race

package f3d

// raceEnabled reports whether the Go race detector is active; the
// wall-clock guard skips itself under it.
const raceEnabled = true
