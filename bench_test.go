// Package repro holds the repository-level benchmark harness: one
// benchmark group per table and figure of the paper (see DESIGN.md §4) and
// one per ablation axis (§5). The full tables are regenerated by
// cmd/experiments; these benchmarks measure the underlying operations so
// regressions in any reproduced quantity show up in `go test -bench`.
package repro

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/motion"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tiling"
	"repro/internal/video"
	"repro/internal/workload"
)

// benchFrames renders a short rotating brain study.
func benchFrames(b *testing.B, w, h, n int) []*video.Frame {
	b.Helper()
	cfg := medgen.Default()
	cfg.Width, cfg.Height = w, h
	cfg.Frames = n
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*video.Frame, n)
	for i := range out {
		out[i] = g.Frame(i)
	}
	return out
}

// encodeLoop measures steady-state P-frame encoding with the given search
// configuration over a fixed uniform grid — the core operation behind
// Table I's speedup columns.
func encodeLoop(b *testing.B, searcher motion.Searcher, window int) {
	frames := benchFrames(b, 320, 240, 2)
	cfg := codec.DefaultConfig()
	cfg.Width, cfg.Height = 320, 240
	cfg.IntraPeriod = 0
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	grid := tiling.MustUniform(320, 240, 4, 3)
	params := make([]codec.TileParams, grid.NumTiles())
	for i := range params {
		params[i] = codec.TileParams{QP: 32, Searcher: searcher, Window: window}
	}
	if _, _, err := enc.EncodeFrame(frames[0], grid, params); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-encode the same P-frame against the evolving reference; the
		// content stays representative and the work is steady state.
		if _, _, err := enc.EncodeFrame(frames[1], grid, params); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I: motion estimation speedup / quality (DESIGN §4, Table I) ---

func BenchmarkTable1_EncodeTZ(b *testing.B) {
	encodeLoop(b, motion.TZSearch{}, 64)
}

func BenchmarkTable1_EncodeHexagon(b *testing.B) {
	encodeLoop(b, motion.Hexagon{Orientation: motion.HexRotating}, 64)
}

func BenchmarkTable1_EncodeProposedLowMotion(b *testing.B) {
	// The low-motion follow configuration: directed OTS in an 8px window.
	encodeLoop(b, motion.OneAtATime{Direction: motion.MV{X: -1, Y: 0}}, 8)
}

func BenchmarkTable1_EncodeProposedHighMotion(b *testing.B) {
	// The high-motion follow configuration: directed hexagon, 32px window.
	encodeLoop(b, motion.Hexagon{Orientation: motion.HexHorizontal}, 32)
}

// BenchmarkTable1_SearchOnly measures the raw search kernels outside the
// codec (SAD evaluations per op reported via custom metric).
func BenchmarkTable1_SearchOnly(b *testing.B) {
	frames := benchFrames(b, 320, 240, 2)
	searchers := []motion.Searcher{
		motion.TZSearch{},
		motion.Hexagon{Orientation: motion.HexRotating},
		motion.Cross{},
		motion.OneAtATime{},
	}
	for _, s := range searchers {
		b.Run(s.Name(), func(b *testing.B) {
			blk := motion.Block{Cur: frames[1].Y, Ref: frames[0].Y, X: 144, Y: 112, W: 16, H: 16}
			var evals int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := s.Search(blk, 64, motion.MV{})
				evals += res.Evals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// --- Fig. 3 / Table II: the serving pipeline (DESIGN §4) ---

// BenchmarkFig3_PipelinePerFrame measures one full pipeline frame (stages
// A–C plus encode) in proposed mode — the per-frame cost behind Fig. 3's
// CPU numbers.
func BenchmarkFig3_PipelinePerFrame(b *testing.B) {
	cfg := medgen.Default()
	cfg.Width, cfg.Height = 320, 240
	cfg.Frames = 1 << 20 // effectively unbounded; the session reads lazily
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src, err := core.SourceFromGenerator(g, cfg.Frames, cfg.FPS, cfg.Class.String())
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.NewSession(0, src, core.DefaultSessionConfig(), workload.NewLUT())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.EncodeNextFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Allocation measures Algorithm 2 on a saturated 40-user
// queue — the admission + packing + DVFS decision behind Table II.
func BenchmarkTable2_Allocation(b *testing.B) {
	in := benchSchedInput(40, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.AllocateContentAware(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_BaselineAllocation(b *testing.B) {
	in := benchSchedInput(40, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.AllocateBaseline(in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSchedInput builds a deterministic heterogeneous demand set.
func benchSchedInput(users, tilesPerUser int) sched.Input {
	var ds []sched.UserDemand
	for u := 0; u < users; u++ {
		d := sched.UserDemand{User: u}
		for t := 0; t < tilesPerUser; t++ {
			cpu := time.Duration(2+(u+t*3)%9) * time.Millisecond
			d.Threads = append(d.Threads, sched.Thread{User: u, Tile: t, TimeFmax: cpu})
		}
		ds = append(ds, d)
	}
	return sched.Input{Platform: mpsoc.XeonE5_2667V4(), FPS: 24, Users: ds}
}

// --- Fig. 4: power simulation (DESIGN §4, Fig. 4) ---

func BenchmarkFig4_PowerSimulation(b *testing.B) {
	platform := mpsoc.XeonE5_2667V4()
	res, err := sched.AllocateContentAware(benchSchedInput(12, 6))
	if err != nil {
		b.Fatal(err)
	}
	slot := time.Second / 24
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.SimulateSlot(res.Plans, slot); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sec. III-D1: workload LUT (text claim) ---

func BenchmarkLUT_ObserveEstimate(b *testing.B) {
	lut := workload.NewLUT()
	keys := make([]workload.Key, 8)
	for i := range keys {
		keys[i] = workload.MakeKey(64*64*(i%4+1), i%3, i%2, 22+5*(i%5), 8<<(i%4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		lut.Observe(k, time.Duration(i%1000)*time.Microsecond)
		_ = lut.Estimate(k)
	}
}

// --- Ablations (DESIGN §5) ---

// BenchmarkAblation_Retiling compares the per-GOP analysis + re-tiling cost
// against a plain uniform tiling (the decision stage must stay cheap —
// "fast enough to avoid any computational overhead", Sec. III-A).
func BenchmarkAblation_Retiling(b *testing.B) {
	frames := benchFrames(b, 640, 480, 2)
	acfg := analysis.DefaultConfig()
	b.Run("content-aware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev, err := analysis.NewEvaluator(acfg, frames[1].Y, frames[0].Y)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tiling.Retile(640, 480, tiling.DefaultRetileConfig(), ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tiling.Uniform(640, 480, 4, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Allocators compares the allocation policies at equal
// input — the distance-to-cap rule vs the simpler strategies.
func BenchmarkAblation_Allocators(b *testing.B) {
	in := benchSchedInput(24, 5)
	policies := map[string]func(sched.Input) (*sched.Result, error){
		"algorithm2":  sched.AllocateContentAware,
		"greedy":      sched.AllocateGreedyLeastLoaded,
		"round-robin": sched.AllocateRoundRobin,
	}
	for name, alloc := range policies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alloc(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_QPCost shows the encode-cost effect of the per-tile QP
// choice (the quality-aware configuration trades bits for cycles).
func BenchmarkAblation_QPCost(b *testing.B) {
	for _, qp := range []int{22, 32, 42} {
		b.Run(map[int]string{22: "qp22", 32: "qp32", 42: "qp42"}[qp], func(b *testing.B) {
			frames := benchFrames(b, 320, 240, 2)
			cfg := codec.DefaultConfig()
			cfg.Width, cfg.Height = 320, 240
			cfg.IntraPeriod = 0
			enc, err := codec.NewEncoder(cfg)
			if err != nil {
				b.Fatal(err)
			}
			grid := tiling.MustUniform(320, 240, 2, 2)
			params := make([]codec.TileParams, 4)
			for i := range params {
				params[i] = codec.TileParams{QP: qp, Searcher: motion.Hexagon{}, Window: 16}
			}
			if _, _, err := enc.EncodeFrame(frames[0], grid, params); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := enc.EncodeFrame(frames[1], grid, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ParallelTiles measures tile-level parallel speedup —
// the property frame-level parallelization is built on.
func BenchmarkAblation_ParallelTiles(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers1", 2: "workers2", 4: "workers4"}[workers], func(b *testing.B) {
			frames := benchFrames(b, 640, 480, 2)
			cfg := codec.DefaultConfig()
			cfg.IntraPeriod = 0
			enc, err := codec.NewEncoder(cfg)
			if err != nil {
				b.Fatal(err)
			}
			grid := tiling.MustUniform(640, 480, 4, 4)
			params := make([]codec.TileParams, 16)
			for i := range params {
				params[i] = codec.TileParams{QP: 32, Searcher: motion.Hexagon{}, Window: 16}
			}
			if _, _, err := enc.EncodeFrameContext(context.Background(), frames[0], grid, params, workers); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := enc.EncodeFrameContext(context.Background(), frames[1], grid, params, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_WavefrontVsTiles compares the two HEVC frame-level
// parallelization schemes at equal workers (paper Sec. II-C: wavefront
// dependencies limit concurrency; tiles are fully independent).
func BenchmarkAblation_WavefrontVsTiles(b *testing.B) {
	frames := benchFrames(b, 640, 480, 2)
	mk := func() *codec.Encoder {
		cfg := codec.DefaultConfig()
		cfg.IntraPeriod = 0
		enc, err := codec.NewEncoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		grid := tiling.MustUniform(640, 480, 1, 1)
		p := []codec.TileParams{{QP: 32, Searcher: motion.TZSearch{}, Window: 16}}
		if _, _, err := enc.EncodeFrame(frames[0], grid, p); err != nil {
			b.Fatal(err)
		}
		return enc
	}
	b.Run("tiles4x4-workers4", func(b *testing.B) {
		enc := mk()
		grid := tiling.MustUniform(640, 480, 4, 4)
		params := make([]codec.TileParams, 16)
		for i := range params {
			params[i] = codec.TileParams{QP: 32, Searcher: motion.TZSearch{}, Window: 16}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := enc.EncodeFrameContext(context.Background(), frames[1], grid, params, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wavefront-workers4", func(b *testing.B) {
		enc := mk()
		p := codec.TileParams{QP: 32, Searcher: motion.TZSearch{}, Window: 16}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := enc.EncodeFrameWavefront(frames[1], p, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Multi-user serving loop (DESIGN §6) ---

// benchServer builds a server with n ongoing sessions over effectively
// unbounded videos, so every benchmark iteration serves exactly one GOP
// round in steady state.
func benchServer(b *testing.B, users int, sequential bool) *core.Server {
	b.Helper()
	srv, err := core.NewServer(core.ServerConfig{
		Platform:   mpsoc.XeonE5_2667V4(),
		FPS:        24,
		Workers:    1,
		Sequential: sequential,
	})
	if err != nil {
		b.Fatal(err)
	}
	classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
	for i := 0; i < users; i++ {
		cfg := medgen.Default()
		cfg.Width, cfg.Height = 320, 240
		cfg.Frames = 1 << 20
		cfg.Class = classes[i%len(classes)]
		cfg.Motion = motions[i%len(motions)]
		cfg.Seed = int64(i + 1)
		g, err := medgen.NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		src, err := core.SourceFromGenerator(g, cfg.Frames, cfg.FPS, cfg.Class.String())
		if err != nil {
			b.Fatal(err)
		}
		scfg := core.DefaultSessionConfig()
		scfg.Codec.GOPSize = 4
		if _, err := srv.Submit(src, scfg); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// serveRounds runs n rounds, failing the benchmark on any error.
func serveRounds(b *testing.B, srv *core.Server, n int) []*core.GOPOutcome {
	b.Helper()
	outs := make([]*core.GOPOutcome, n)
	for i := range outs {
		out, err := srv.ServeGOP()
		if err != nil {
			b.Fatal(err)
		}
		outs[i] = out
	}
	return outs
}

// BenchmarkServeGOP_4Sessions compares one GOP round of four concurrent
// users under the sequential reference path and the concurrent serving
// loop. On a machine with ≥ 8 cores the concurrent loop should be ≥ 2×
// faster per round; the setup of the concurrent case also cross-checks
// that both paths emit bit-identical bitstreams.
func BenchmarkServeGOP_4Sessions(b *testing.B) {
	for _, mode := range []struct {
		name       string
		sequential bool
	}{
		{"sequential", true},
		{"concurrent", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			if !mode.sequential {
				// Bit-identity cross-check (untimed): one round on fresh
				// servers of both modes must agree byte for byte.
				so := serveRounds(b, benchServer(b, 4, true), 1)[0]
				po := serveRounds(b, benchServer(b, 4, false), 1)[0]
				if len(so.AdmittedUsers) != len(po.AdmittedUsers) {
					b.Fatalf("admitted sets differ: %v vs %v", so.AdmittedUsers, po.AdmittedUsers)
				}
				for _, id := range so.AdmittedUsers {
					if so.GOPs[id].Digest != po.GOPs[id].Digest {
						b.Fatalf("user %d: sequential digest %x != concurrent %x",
							id, so.GOPs[id].Digest, po.GOPs[id].Digest)
					}
				}
			}
			srv := benchServer(b, 4, mode.sequential)
			serveRounds(b, srv, 1) // warm the LUTs and grids
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveRounds(b, srv, 1)
			}
		})
	}
}

// BenchmarkServeGOP_Scaling sweeps the user count under the concurrent
// loop — the serving-throughput curve the north-star cares about.
func BenchmarkServeGOP_Scaling(b *testing.B) {
	for _, users := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "users1", 2: "users2", 4: "users4", 8: "users8"}[users], func(b *testing.B) {
			srv := benchServer(b, users, false)
			serveRounds(b, srv, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveRounds(b, srv, 1)
			}
		})
	}
}

// BenchmarkServiceRun_Churn measures the full online service loop under
// session churn: every iteration runs a complete service — sessions
// arriving at staggered rounds, the admission ladder and estimate
// calibration enabled — from first Submit to drained queue. This is the
// end-to-end cost of the paper's online scenario (DESIGN §7).
//
// Besides wall time it reports sustained GOP throughput in *service
// time* — GOP reports divided by the service makespan (rounds ×
// GOPSize/FPS), the platform-simulation clock every serving decision is
// priced in — for comparison against BenchmarkFleetRun_Churn.
func BenchmarkServiceRun_Churn(b *testing.B) {
	const sessions = 4
	var gops, rounds int
	for i := 0; i < b.N; i++ {
		var srv *core.Server
		classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
		submitted := 0
		submit := func() {
			cfg := medgen.Default()
			cfg.Width, cfg.Height = 320, 240
			cfg.Frames = 8
			cfg.Class = classes[submitted%len(classes)]
			cfg.Seed = int64(submitted + 1)
			g, err := medgen.NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src, err := core.SourceFromGenerator(g, cfg.Frames, cfg.FPS, cfg.Class.String())
			if err != nil {
				b.Fatal(err)
			}
			scfg := core.DefaultSessionConfig()
			scfg.Codec.GOPSize = 4
			if _, err := srv.Submit(src, scfg); err != nil {
				b.Fatal(err)
			}
			submitted++
		}
		var err error
		srv, err = core.NewServer(core.ServerConfig{
			Platform:    mpsoc.XeonE5_2667V4(),
			FPS:         24,
			Calibration: core.CalibrationConfig{Enabled: true},
			Admission:   core.AdmissionConfig{Enabled: true},
			OnRound: func(out *core.GOPOutcome) {
				// Staggered arrivals: one newcomer per round until drained.
				if submitted < sessions {
					submit()
				}
				if submitted == sessions {
					srv.Close()
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		submit()
		submit()
		rep, err := srv.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		gops += rep.GOPReports
		rounds += rep.Rounds
	}
	reportServiceThroughput(b, gops, rounds)
}

// reportServiceThroughput emits the churn benchmarks' comparison metric:
// GOP reports per second of simulated service time, where every round
// advances the service clock by one GOP (GOPSize 4 at 24 FPS). rounds is
// the summed service makespan across iterations — for a fleet, the
// slowest shard's round count per iteration, since shards serve their
// rounds concurrently in service time.
func reportServiceThroughput(b *testing.B, gops, rounds int) {
	b.Helper()
	gopSeconds := 4.0 / 24.0
	if rounds > 0 {
		b.ReportMetric(float64(gops)/(float64(rounds)*gopSeconds), "gops/svc-sec")
	}
	b.ReportMetric(float64(gops)/float64(b.N), "gops/op")
}

// BenchmarkFleetRun_Churn is the multi-shard counterpart: 3 shards on
// the same total core budget as the single server's 32 (11+11+10) serve
// 3x the sessions (12) under the same churn pattern. Shards run their
// rounds concurrently, so the service makespan is the slowest shard's
// round count and the sustained GOP throughput in service time is ≥ 2x
// the single server's (ISSUE 3 acceptance criterion); on a multi-core
// host the wall-clock time per op gains as well.
func BenchmarkFleetRun_Churn(b *testing.B) {
	const sessions = 12
	var gops, makespan int
	for i := 0; i < b.N; i++ {
		var fleet *serve.Fleet
		classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
		// Round hooks fire on every shard's serving goroutine; the churn
		// state they share needs a lock (unlike the single-server bench).
		var mu sync.Mutex
		submitted := 0
		submit := func() {
			cfg := medgen.Default()
			cfg.Width, cfg.Height = 320, 240
			cfg.Frames = 8
			cfg.Class = classes[submitted%len(classes)]
			cfg.Seed = int64(submitted + 1)
			g, err := medgen.NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src, err := core.SourceFromGenerator(g, cfg.Frames, cfg.FPS, cfg.Class.String())
			if err != nil {
				b.Fatal(err)
			}
			scfg := core.DefaultSessionConfig()
			scfg.Codec.GOPSize = 4
			if _, err := fleet.SubmitWith(serve.SubmitRequest{Source: src, Config: scfg}); err != nil {
				b.Fatal(err)
			}
			submitted++
		}
		platformOf := func(cores int) *mpsoc.Platform {
			p := mpsoc.XeonE5_2667V4()
			p.Cores = cores
			return p
		}
		var err error
		fleet, err = serve.New(
			// Same 32-core total budget as the single-server benchmark.
			serve.WithPlatforms(platformOf(11), platformOf(11), platformOf(10)),
			serve.WithShardCapacity((sessions+2)/3),
			serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
			serve.WithAdmission(core.AdmissionConfig{Enabled: true}),
			serve.WithRoundHook(func(shard int, out *core.GOPOutcome) {
				// Staggered arrivals: one newcomer per served round
				// (fleet-wide) until drained.
				mu.Lock()
				defer mu.Unlock()
				if submitted < sessions {
					submit()
				}
				if submitted == sessions {
					fleet.Close()
				}
			}),
		)
		if err != nil {
			b.Fatal(err)
		}
		mu.Lock()
		for j := 0; j < 6; j++ {
			submit()
		}
		mu.Unlock()
		rep, err := fleet.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != sessions || rep.GOPReports != sessions*2 {
			b.Fatalf("fleet lost work: %d completed, %d GOP reports", rep.Completed, rep.GOPReports)
		}
		gops += rep.GOPReports
		worst := 0
		for _, sr := range rep.Shards {
			if sr.Report.Rounds > worst {
				worst = sr.Report.Rounds
			}
		}
		makespan += worst
	}
	reportServiceThroughput(b, gops, makespan)
}

// BenchmarkMedgen_FrameRender measures the synthetic video substrate.
func BenchmarkMedgen_FrameRender(b *testing.B) {
	cfg := medgen.Default()
	g, err := medgen.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Frame(i % 64)
	}
}
