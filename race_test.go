//go:build race

package repro

func init() { raceEnabled = true }
