//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is put back, so allocation counts of
// paths that draw from a pool are not exact.
const raceEnabled = true
