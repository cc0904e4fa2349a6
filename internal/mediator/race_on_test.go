//go:build race

package mediator

// raceEnabled: under the race detector sync.Pool deliberately drops a
// quarter of its Puts, so pins that depend on a warm pool do not hold.
const raceEnabled = true
