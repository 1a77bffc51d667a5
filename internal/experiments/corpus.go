// Package experiments implements the paper's evaluation (Sec. IV): one
// runner per table and figure, each returning structured results and a
// rendered table. cmd/experiments exposes them on the command line, and
// the small-geometry renders are goldens under testdata/.
//
// Absolute numbers differ from the paper — the substrate is a simulator
// driven by a leaner encoder on different hardware — but each runner
// reproduces the paper's *shape*: who wins, by roughly what factor, and
// where the trends bend. DESIGN.md §3 indexes the experiments.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/medgen"
)

// buildCorpus opens the synthetic substitute for the paper's ten anonymized
// clinical videos: five body-part classes × two review motions, all at the
// given geometry. Seeds are fixed so every run sees the same corpus. A run
// holds the generators for its length, so every session that plays a
// video shares its rendered frames.
func buildCorpus(width, height, frames int) ([]*medgen.Generator, error) {
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Sweep}
	var out []*medgen.Generator
	for class := medgen.Class(0); int(class) < medgen.NumClasses; class++ {
		for mi, m := range motions {
			cfg := medgen.Default()
			cfg.Width, cfg.Height = width, height
			cfg.Frames = frames
			cfg.Class = class
			cfg.Motion = m
			cfg.Seed = int64(class)*10 + int64(mi) + 1
			g, err := medgen.NewGenerator(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, g)
		}
	}
	return out, nil
}

// fmtDuration renders a duration in milliseconds with two decimals, the
// unit the paper's Fig. 3 uses (seconds) scaled for readability.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
