package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// workloadSpec is the static description of one traffic mix.
type workloadSpec struct {
	name string
	why  string
	// units is the number of serving loops (fleet shards, or dist agents).
	units int
	// clips is how many roster clips set-up renders for it.
	clips int
	// refReps is how many reference-kernel samples each round hook takes,
	// chosen so every measured window holds at least 200.
	refReps int
	// mode is the session mode the workload encodes in.
	mode core.Mode
	// deterministic workloads price every serving decision with the work
	// model, so their counts repeat exactly; dist_live learns wall time.
	deterministic bool
	// replayRounds is how many rounds the correctness gate replays on a
	// sequential reference server, to match the fleet's digest for digest
	// (0: the sessions' order depends on the run, nothing to line up).
	// lossless workloads must serve every frame offered.
	replayRounds int
	lossless     bool
	// coldStartsInSetup: the sessions start before the measured window
	// opens, so their first-GOP latency is deflated by the set-up slowdown.
	coldStartsInSetup bool
	size              func(seconds int) sizing
	// rehearsal is the size of a set-up repeat: the full warm-up, then
	// just enough work to open the measured window. smoke is the tier-1
	// smoke test's size: the same code path in seconds.
	rehearsal, smoke sizing
	run              func(p *pass) error
}

// The frozen sizing rates: how many rounds (or sessions) make one second of
// measured window on the 2-core sandbox at the commit that defined the
// benchmark. A faster program finishes the same work sooner; it never
// gets more work.
const (
	steadyProposedRoundsPerSec = 16.0
	steadyBaselineRoundsPerSec = 10.0
)

var workloads = []*workloadSpec{
	{
		name:  "steady_proposed",
		why:   "four long content-aware sessions at steady state: the codec residual path dominates and the control plane is about 1% of a round",
		units: 1, clips: 4, refReps: 1, deterministic: true, coldStartsInSetup: true,
		mode: core.ModeProposed, replayRounds: 16, lossless: true,
		rehearsal: sizing{warm: warmRounds, rounds: 1},
		smoke:     sizing{warm: 1, rounds: 3, clip: gopSize, probe: smokeProbeBudget},
		size: func(sec int) sizing {
			return sizing{warm: warmRounds, rounds: int(steadyProposedRoundsPerSec * float64(sec))}.full()
		},
		run: runSteady,
	},
	{
		name:  "steady_baseline",
		why:   "the same clips on the uniform-tiling TZ-search comparator: motion search dominates, so a search-kernel change shows here",
		units: 1, clips: 4, refReps: 2, deterministic: true, coldStartsInSetup: true,
		mode: core.ModeBaseline, replayRounds: 2, lossless: true,
		rehearsal: sizing{warm: warmRounds, rounds: 1},
		smoke:     sizing{warm: 1, rounds: 3, clip: gopSize, probe: smokeProbeBudget},
		size: func(sec int) sizing {
			return sizing{warm: warmRounds, rounds: int(steadyBaselineRoundsPerSec * float64(sec))}.full()
		},
		run: runSteady,
	},
	{
		name:  "churn_overload",
		why:   "open-loop Poisson arrivals above capacity on two 8-core shards with ladder, tenants and three sinks: admission, allocator and sink work at their peak",
		units: churnShards, clips: churnClips, refReps: 1, deterministic: true,
		mode:      core.ModeProposed,
		rehearsal: sizing{warm: warmRounds, sessions: 32},
		smoke:     sizing{warm: 1, sessions: 8, clip: gopSize, probe: smokeProbeBudget},
		size: func(sec int) sizing {
			return sizing{warm: warmRounds, sessions: churnShards * int(churnSessionsPerSec*float64(sec)/churnShards)}.full()
		},
		run: runChurn,
	},
	{
		name:  "dist_live",
		why:   "eighteen sessions through a master and two agents over loopback HTTP: the only workload that crosses the wire and learns raw wall-clock LUTs",
		units: distAgents, clips: 4, refReps: 1,
		mode: core.ModeProposed, lossless: true,
		rehearsal: sizing{warm: warmRounds, frames: 4 * gopSize},
		smoke:     sizing{warm: 1, frames: 2 * gopSize, clip: gopSize, probe: smokeProbeBudget},
		size: func(sec int) sizing {
			return sizing{warm: warmRounds, frames: 2 * gopSize * int(distFramesPerSec*float64(sec)/(2*gopSize))}.full()
		},
		run: runDist,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// steadySessions is the number of long-lived sessions of the two steady
// workloads: one per roster clip.
const steadySessions = 4

// allocatorFor names the stage-D2 policy a session mode is served with.
func allocatorFor(mode core.Mode) string {
	if mode == core.ModeBaseline {
		return sched.NameBaseline
	}
	return sched.NameContentAware
}

// classLabels names each clip's workload class after its body part.
func classLabels(clips []*clip) []string {
	labels := make([]string, len(clips))
	for i, c := range clips {
		labels[i] = c.cfg.Class.String()
	}
	return labels
}

// homedLabel returns the first label "<base>/<k>" the ring homes where the
// caller wants it. Class labels are free-form: the suffix only steers the
// consistent hash.
func homedLabel(base string, wanted func(label string) bool) string {
	for k := 0; ; k++ {
		if l := fmt.Sprintf("%s/%d", base, k); wanted(l) {
			return l
		}
	}
}

// runSteady serves steadySessions long-lived sessions on a one-shard fleet
// over the paper's platform: closed loop, rounds back to back.
func runSteady(p *pass) error {
	reg, err := p.alloc.registry()
	if err != nil {
		return err
	}
	ring := serve.NewRingSink(64)
	fleet, err := serve.New(
		serve.WithPlatforms(mpsoc.XeonE5_2667V4()),
		serve.WithFPS(frameFPS),
		serve.WithRegistry(reg),
		serve.WithAllocator(allocatorFor(p.wl.mode)),
		serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
		serve.WithTimeScale(modelTimeScale),
		serve.WithSink(p.probe("serve.sink.ring", ring, 0, true)),
		serve.WithRoundHook(func(shard int, out *core.GOPOutcome) { p.rec.onRound(shard, out, nil) }),
	)
	if err != nil {
		return err
	}
	frames := (p.size.warm + p.size.rounds) * gopSize
	cfg := sessionConfig(p.wl.mode, true)
	cfg.KeepBitstreams = true // all keptSessions of them: the gate decodes their first GOPs
	clips := p.clips[:steadySessions]
	labels := classLabels(clips)
	store, err := seedLUTs(clips, labels, cfg)
	if err != nil {
		return err
	}
	fleet.MergeLUTs(store)
	// The seed decides which session plays which clip, and where in its
	// ping-pong cycle each one starts.
	r := newRNG(p.seed, 0x57ead)
	order := r.perm(len(clips))
	for _, i := range order {
		src := p.source(clips[i], r.intn(clips[i].period()), frames, labels[i])
		if err := p.submit(fleet, 0, src, cfg, "", 0); err != nil {
			return err
		}
	}
	fleet.Close()
	var rep *serve.Report
	err = p.serve(func(ctx context.Context) error {
		var err error
		rep, err = fleet.Run(ctx)
		return err
	})
	if err != nil {
		return err
	}
	if rep.Completed != steadySessions || rep.Failed != 0 || rep.Rejected != 0 {
		return fmt.Errorf("steady fleet: %d completed, %d failed, %d rejected of %d sessions",
			rep.Completed, rep.Failed, rep.Rejected, steadySessions)
	}
	p.ext.fleets = append(p.ext.fleets, fleet)
	return nil
}

// seedLUTs builds a workload store holding, per class label, what one solo
// GOP of each clip teaches the LUT. Every in-process workload merges it into its
// fleet before the first submit, the way a restarted production fleet
// loads its persisted store: a class nobody has encoded yet is priced at
// the LUT's conservative prior, which the platform time scale turns into
// a whole-platform demand that would starve every other newcomer.
func seedLUTs(clips []*clip, labels []string, cfg core.SessionConfig) (*workload.Store, error) {
	store := workload.NewStore()
	for i, c := range clips {
		src := newClipSource(c, 0, gopSize, labels[i], nil)
		sess, err := core.NewSession(0, src, cfg, store.ForClass(labels[i]))
		if err != nil {
			return nil, err
		}
		if _, err := sess.EncodeGOP(); err != nil {
			return nil, err
		}
	}
	return store, nil
}
