//go:build !race

package source

const raceEnabled = false
