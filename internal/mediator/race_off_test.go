//go:build !race

package mediator

const raceEnabled = false
