//go:build !race

package gcf

func raceRelease() {}
func raceAcquire() {}
