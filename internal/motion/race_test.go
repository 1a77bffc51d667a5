//go:build race

package motion

func init() { raceEnabled = true }
