//go:build !race

package psi

const raceEnabled = false
