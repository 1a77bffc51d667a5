package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/entropy"
	"repro/internal/motion"
	"repro/internal/mpsoc"
	"repro/internal/tiling"
	"repro/internal/transform"
	"repro/internal/video"
	"repro/internal/workload"
)

// The layer probes replay inputs captured from a traced pass through each
// layer's public functions, one layer at a time, with nothing else
// running. They answer "what does this layer cost per operation on this
// workload's inputs"; multiplied by the traced pass's counts they bound
// what a faster layer can save end to end.

// probeBudget is roughly how long each timed probe loop runs in a run of
// record; the smoke test only checks that the probes work.
const (
	probeBudget      = 40 * time.Millisecond
	smokeProbeBudget = 2 * time.Millisecond
)

// probeSet runs probes and deflates their timings by a slowdown measured
// with the reference kernel sampled between them.
type probeSet struct {
	budget time.Duration
	ref    *refSampler
	raw    map[string]float64 // timing metrics before deflation
	ms     *metricSet
}

// timeLoop calls fn repeatedly for about the probe budget and returns the mean
// seconds per call.
func (ps *probeSet) timeLoop(fn func()) float64 {
	fn() // warm caches and pools
	n := 0
	t0 := time.Now()
	for time.Since(t0) < ps.budget {
		fn()
		n++
	}
	per := time.Since(t0).Seconds() / float64(n)
	ps.ref.sample(1)
	return per
}

// sourceOf finds the frames behind a captured GOP: the exact source when the
// session was placed in-process, otherwise (a dist agent bound it) any
// source of the same unit.
func (p *pass) sourceOf(c *capturedGOP) *clipSource {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sameUnit *clipSource
	for _, s := range p.srcs {
		if int(s.unit.Load()) != c.unit {
			continue
		}
		if int(s.session.Load()) == c.session {
			return s
		}
		if sameUnit == nil {
			sameUnit = s
		}
	}
	return sameUnit
}

// replayParams rebuilds the per-tile encoding parameters the session used
// for each frame of a captured GOP from what the program reported: QP and
// window from TileStats, the searcher from the public GOP search policy
// fed the same observations.
func replayParams(cfg core.SessionConfig, gop *core.GOPReport) ([][]codec.TileParams, error) {
	policy, err := motion.NewGOPPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	all := make([][]codec.TileParams, len(gop.Frames))
	for k := range gop.Frames {
		fr := &gop.Frames[k]
		frameInGOP := cfg.Codec.FrameInGOP(fr.Frame)
		params := make([]codec.TileParams, len(fr.Tiles))
		for i, ts := range fr.Tiles {
			tp := codec.TileParams{QP: ts.QP, Window: ts.Window, Searcher: motion.TZSearch{}}
			if cfg.Mode == core.ModeProposed && i < len(gop.Contents) {
				tp.Searcher, _ = policy.Choose(i, gop.Contents[i].Motion == analysis.MotionHigh, frameInGOP)
				tp.Pred = policy.PredFor(i, frameInGOP)
			}
			params[i] = tp
		}
		if frameInGOP == 0 && fr.Type == codec.FrameP {
			for i, ts := range fr.Tiles {
				policy.Observe(i, ts.MeanMV)
			}
		}
		all[k] = params
	}
	return all, nil
}

// codecProbe re-encodes and decodes the captured GOPs on fresh codec
// instances: codec.encode_ms_per_frame and codec.decode_ms_per_frame.
func (ps *probeSet) codecProbe(p *pass, cfg core.SessionConfig, caps []*capturedGOP) error {
	type job struct {
		lead   *video.Frame // encoded untimed first, so a P-only GOP has a reference
		frames []*video.Frame
		grid   *tiling.Grid
		params [][]codec.TileParams
	}
	var jobs []job
	for _, c := range caps {
		src := p.sourceOf(c)
		if src == nil || len(c.report.Frames) == 0 {
			continue
		}
		params, err := replayParams(cfg, c.report)
		if err != nil {
			return err
		}
		j := job{grid: c.report.Grid, params: params}
		first := c.report.Frames[0].Frame
		if c.report.Frames[0].Type == codec.FrameP && first > 0 {
			j.lead = src.Frame(first - 1)
		}
		for _, fr := range c.report.Frames {
			j.frames = append(j.frames, src.Frame(fr.Frame))
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("codec probe: no captured GOP")
	}
	ccfg := cfg.Codec
	ccfg.IntraPeriod = 0 // one I-frame, then P: the frame types of the captured GOPs
	var encT, decT time.Duration
	var frames int
	deadline := time.Now().Add(6 * ps.budget)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		for _, j := range jobs {
			enc, err := codec.NewEncoder(ccfg)
			if err != nil {
				return err
			}
			dec, err := codec.NewDecoder(ccfg)
			if err != nil {
				return err
			}
			if j.lead != nil {
				lead := make([]codec.TileParams, len(j.params[0]))
				for i := range lead {
					lead[i] = codec.TileParams{QP: j.params[0][i].QP, Searcher: motion.TZSearch{}, Window: 8}
				}
				_, bs, err := enc.EncodeFrame(j.lead, j.grid, lead)
				if err != nil {
					return err
				}
				if _, err := dec.DecodeFrame(bs, j.grid); err != nil {
					return err
				}
			}
			for k, f := range j.frames {
				t0 := time.Now()
				st, bs, err := enc.EncodeFrame(f, j.grid, j.params[k])
				t1 := time.Now()
				if err != nil {
					return err
				}
				out, err := dec.DecodeFrame(bs, j.grid)
				t2 := time.Now()
				if err != nil {
					return err
				}
				encT += t1.Sub(t0)
				decT += t2.Sub(t1)
				frames++
				if rep == 0 {
					if psnr, err := video.PSNR(f.Y, out.Y); err != nil || math.Abs(video.CapPSNR(psnr, 100)-st.PSNR) > 0.01 {
						return fmt.Errorf("codec probe: decoded PSNR %.4f, encoder reported %.4f (%v)", psnr, st.PSNR, err)
					}
				}
			}
		}
		ps.ref.sample(1)
	}
	ps.raw["codec.encode_ms_per_frame"] = encT.Seconds() * 1e3 / float64(frames)
	ps.raw["codec.decode_ms_per_frame"] = decT.Seconds() * 1e3 / float64(frames)
	return nil
}

// blockProbes times the motion, transform and entropy kernels on blocks cut
// from two consecutive captured source frames.
func (ps *probeSet) blockProbes(cur, ref *video.Frame) {
	var blocks []motion.Block
	for y := 48; y+16 <= frameH-48; y += 16 {
		for x := 64; x+16 <= frameW-64; x += 16 {
			blocks = append(blocks, motion.Block{Cur: cur.Y, Ref: ref.Y, X: x, Y: y, W: 16, H: 16})
		}
	}
	searchers := []struct {
		key    string
		s      motion.Searcher
		window int
	}{
		{"motion.search_us_per_block.tz", motion.TZSearch{}, 64},
		{"motion.search_us_per_block.hex", motion.Hexagon{Orientation: motion.HexRotating}, 32},
		{"motion.search_us_per_block.oaat", motion.OneAtATime{}, 8},
	}
	var keep int
	for _, sr := range searchers {
		per := ps.timeLoop(func() {
			for _, b := range blocks {
				keep += sr.s.Search(b, sr.window, motion.MV{}).Evals
			}
		})
		ps.raw[sr.key] = per * 1e6 / float64(len(blocks))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range blocks {
		keep += motion.TZSearch{}.Search(b, 64, motion.MV{}).Evals
	}
	runtime.ReadMemStats(&m1)
	ps.ms.put("motion.alloc_b_per_search", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(blocks)), "B")

	// Residual 8×8 blocks: the frame difference, which is what inter
	// prediction leaves to the transform.
	var res [][]int32
	for y := 48; y+8 <= frameH-48; y += 8 {
		for x := 64; x+8 <= frameW-64; x += 8 {
			blk := make([]int32, 64)
			for dy := 0; dy < 8; dy++ {
				for dx := 0; dx < 8; dx++ {
					blk[dy*8+dx] = int32(cur.Y.At(x+dx, y+dy)) - int32(ref.Y.At(x+dx, y+dy))
				}
			}
			res = append(res, blk)
		}
	}
	n := float64(len(res))
	coef := make([][]int32, len(res))
	levels := make([][]int32, len(res))
	for i := range res {
		coef[i] = make([]int32, 64)
		levels[i] = make([]int32, 64)
	}
	tmp := make([]int32, 64)
	ps.raw["transform.fwd_inv_ns_per_block8"] = 1e9 / n * ps.timeLoop(func() {
		for i, blk := range res {
			_ = transform.Forward(8, blk, coef[i])
			_ = transform.Inverse(8, coef[i], tmp)
		}
	})
	q, err := transform.NewQuantizer(8, 32, false)
	if err != nil {
		panic(err) // QP 32 and size 8 are constants the package accepts
	}
	ps.raw["transform.quant_ns_per_block8"] = 1e9 / n * ps.timeLoop(func() {
		for i := range coef {
			_ = q.Quantize(coef[i], levels[i])
		}
	})
	w := entropy.NewBitWriter()
	ps.raw["entropy.coeff_block_ns"] = 1e9 / n * ps.timeLoop(func() {
		w.Reset()
		for i := range levels {
			_ = entropy.EncodeCoeffBlock(w, 8, levels[i])
		}
	})
	ps.ms.put("entropy.bits_per_block", float64(w.Len())/n, "bit")
	_ = keep
}

// analysisProbes times stage A (content evaluation over the captured grid)
// and stage B (content-aware re-tiling) on a captured GOP-start frame.
func (ps *probeSet) analysisProbes(cfg core.SessionConfig, cur, prev *video.Frame, grid *tiling.Grid) error {
	var perr error
	ps.raw["analysis.evaluate_grid_ms"] = 1e3 * ps.timeLoop(func() {
		ev, err := analysis.NewEvaluator(cfg.Analysis, cur.Y, prev.Y)
		if err == nil {
			_, err = ev.EvaluateGrid(grid)
		}
		if err != nil {
			perr = err
		}
	})
	ev, err := analysis.NewEvaluator(cfg.Analysis, cur.Y, prev.Y)
	if err != nil {
		return err
	}
	ps.raw["tiling.retile_ms"] = 1e3 * ps.timeLoop(func() {
		if _, err := tiling.Retile(frameW, frameH, cfg.Retile, ev); err != nil {
			perr = err
		}
	})
	return perr
}

// stateProbes times the control-plane layers on the state the traced pass
// left behind: the fleets' LUT stores, the last allocation's core plans, the
// metrics registry, the tenant registry.
func (ps *probeSet) stateProbes(p *pass) error {
	keys := 0
	var perKey, observe float64
	for _, fleet := range p.ext.fleets {
		store := fleet.StoreSnapshot() // a deep copy: safe to write to
		for _, class := range store.Classes() {
			lut := store.ForClass(class)
			ks := lut.Keys()
			keys += len(ks)
			if perKey != 0 || len(ks) == 0 {
				continue
			}
			m := make(map[workload.Key]time.Duration, len(ks))
			for _, k := range ks {
				m[k] = 0
			}
			perKey = 1e9 / float64(len(ks)) * ps.timeLoop(func() { lut.EstimateInto(m) })
			observe = 1e9 / float64(len(ks)) * ps.timeLoop(func() {
				for _, k := range ks {
					lut.Observe(k, 300*time.Microsecond)
				}
			})
		}
	}
	ps.ms.put("workload.lut_keys", float64(keys), "count")
	ps.raw["workload.estimate_into_ns_per_key"] = perKey
	ps.raw["workload.observe_ns"] = observe

	ps.raw["mpsoc.simulate_slot_us"] = 0
	for i := range p.rec.units {
		plans := p.rec.units[i].lastPlans
		if len(plans) == 0 {
			continue
		}
		platform := mpsoc.XeonE5_2667V4()
		platform.Cores = len(plans)
		slot := time.Second / time.Duration(frameFPS)
		var perr error
		ps.raw["mpsoc.simulate_slot_us"] = 1e6 * ps.timeLoop(func() {
			if _, err := platform.SimulateSlot(plans, slot); err != nil {
				perr = err
			}
		})
		if perr != nil {
			return perr
		}
		break
	}

	ps.raw["metrics.render_ms"] = 0
	ps.ms.put("metrics.series", 0, "count")
	if p.ext.metricsSink != nil {
		var buf bytes.Buffer
		var perr error
		ps.raw["metrics.render_ms"] = 1e3 * ps.timeLoop(func() {
			buf.Reset()
			if err := p.ext.metricsSink.Registry().WritePrometheus(&buf); err != nil {
				perr = err
			}
		})
		if perr != nil {
			return perr
		}
		series := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
		ps.ms.put("metrics.series", float64(series), "count")
	}

	ps.raw["tenancy.admit_ns"] = 0
	if p.ext.tenants != nil {
		const calls = 1000
		var perr error
		ps.raw["tenancy.admit_ns"] = 1e9 / calls * ps.timeLoop(func() {
			for i := 0; i < calls; i++ {
				if err := p.ext.tenants.Admit(churnTenants[i%len(churnTenants)].ID); err != nil {
					perr = err
				}
			}
		})
		if perr != nil {
			return perr
		}
	}
	return nil
}

// wireProbes times the session wire format on a checkpoint taken from a
// heartbeat the traced pass actually sent.
func (ps *probeSet) wireProbes(p *pass) error {
	ps.raw["dist.wire_marshal_us"] = 0
	ps.raw["dist.wire_restore_us"] = 0
	if p.ext.http == nil {
		return nil
	}
	p.ext.http.mu.Lock()
	sample := p.ext.http.sample
	p.ext.http.mu.Unlock()
	var hb dist.Heartbeat
	if err := json.Unmarshal(sample, &hb); err != nil {
		return fmt.Errorf("wire probe: heartbeat sample: %w", err)
	}
	if len(hb.Checkpoints) == 0 {
		return fmt.Errorf("wire probe: no heartbeat carried a session checkpoint")
	}
	wire := hb.Checkpoints[0]
	bind := func(spec core.SourceSpec) (core.FrameSource, error) {
		return newClipSource(p.clips[0], 0, wire.Frame+gopSize, spec.Class, nil), nil
	}
	var perr error
	ps.raw["dist.wire_marshal_us"] = 1e6 * ps.timeLoop(func() {
		if _, err := json.Marshal(wire); err != nil {
			perr = err
		}
	})
	ps.raw["dist.wire_restore_us"] = 1e6 * ps.timeLoop(func() {
		if _, err := wire.Restore(bind); err != nil {
			perr = err
		}
	})
	return perr
}
