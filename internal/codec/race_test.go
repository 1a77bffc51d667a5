//go:build race

package codec

func init() { raceEnabled = true }
