//go:build !race

package gcf

const raceEnabled = false
