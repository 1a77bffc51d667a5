package main

import (
	"fmt"
)

// quarter is the size of a traced pass: a quarter of the untraced window,
// with the same seed.
func quarter(s sizing) sizing {
	q := s
	q.rounds = max(s.rounds/4, 4)
	if s.sessions > 0 {
		q.sessions = max(s.sessions/4/churnShards*churnShards, 2*churnShards)
	}
	if s.frames > 0 {
		q.frames = max(s.frames/4/(2*gopSize)*(2*gopSize), 2*gopSize)
	}
	return q
}

// runTraced is the -trace 1 mode: an untraced and a traced pass of the same
// quarter-length workload and seed, the determinism gate between them, the
// layer probes, and the per-layer metrics.
func runTraced(o options, wl *workloadSpec, size sizing, clips []*clip, setupRef *refSampler, res *result) (*result, error) {
	if !o.smoke {
		size = quarter(size)
	}
	plain := newPass(wl, o.seed, size, clips, nil, setupRef)
	if err := wl.run(plain); err != nil {
		return nil, fmt.Errorf("%s: untraced pass: %w", wl.name, err)
	}
	tr := newTracer()
	traced := newPass(wl, o.seed, size, clips, tr, setupRef)
	if err := wl.run(traced); err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", wl.name, err)
	}
	if wl.deterministic {
		res.problems = append(res.problems, comparePasses(plain, traced)...)
	}
	ms, err := perLayer(wl, plain, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if o.out != "" {
		path, err := tr.write(o.out, wl.name)
		if err != nil {
			return nil, err
		}
		ms.note("trace.overhead_share", "spans in %s", path)
	}
	res.metrics = ms
	res.attempted, res.failed = traced.outcome()
	return res, nil
}

// perLayer computes every per-layer metric from the traced pass, the probes
// run on what it captured, and (for the tracing overhead) the untraced pass.
func perLayer(wl *workloadSpec, plain, traced *pass) (*metricSet, error) {
	t := traced.totals()
	if t.frames == 0 || len(t.roundMs) == 0 {
		return nil, fmt.Errorf("traced pass measured nothing")
	}
	ms := newMetricSet()
	frames := float64(t.frames)
	rec := traced.rec
	var roundWall float64 // seconds of round wall, all units
	for _, r := range t.roundMs {
		roundWall += r / 1e3
	}

	// In-pass timings, deflated by the traced window's slowdown.
	ms.put("codec.tile_cpu_ms_per_frame", deflate(t.tileTime.Seconds()*1e3/frames, t.s), "ms")
	ms.put("motion.search_time_share", share(float64(t.searchTime), float64(t.tileTime)), "share")
	ms.put("motion.search_evals_per_frame", float64(t.searchEvals)/frames, "count")
	ms.put("codec.intra_block_share", share(float64(t.intraBlk), float64(t.intraBlk+t.interBlk)), "share")
	ms.put("codec.skipped_block_share", share(float64(t.skippedBlk), float64(t.pixels)/64), "share")
	ms.put("codec.bits_per_frame", float64(t.bits)/frames, "bit")
	ms.put("tiling.tiles_per_frame_mean", float64(t.tiles)/frames, "count")
	ms.put("core.estimate_err_mean", share(t.estErrSum, float64(t.estErrTiles)), "share")
	ms.put("core.admitted_per_round_mean", share(float64(t.admitted), float64(t.measuredRounds)), "count")
	ms.put("core.ladder_escalations", float64(t.escalations), "count")
	ms.put("core.timed_out", float64(t.timedOut), "count")
	ms.put("core.preempted", float64(t.preempted), "count")

	traced.alloc.mu.Lock()
	solves := traced.alloc.durs
	traced.alloc.mu.Unlock()
	var allocP50, allocBusy float64
	if len(solves) > 0 {
		allocP50 = median(solves)
	}
	for _, us := range solves {
		allocBusy += us / 1e6
	}
	ms.put("sched.solves_per_round", share(float64(len(solves)), float64(t.measuredRounds)), "count")
	ms.put("sched.allocate_us_p50", deflate(allocP50, t.s), "us")
	ms.put("sched.busy_share", share(allocBusy, roundWall), "share")

	ms.put("core.round_ms_p50", deflate(median(t.roundMs), t.s), "ms")
	p90, ok := tailOrMax(t.roundMs, 0.9)
	ms.put("core.round_ms_p90", deflate(p90, t.s), "ms")
	if ok {
		ms.note("core.round_ms_p90", "n=%d", len(t.roundMs))
	} else {
		ms.note("core.round_ms_p90", "n=%d: too few samples for a p90, reporting the maximum", len(t.roundMs))
	}
	total, self := traced.tr.selfTimes()
	ms.put("core.round_self_share", share(float64(self["core.round"]), float64(total["core.round"])), "share")
	ms.put("core.source_busy_share", share(float64(total["source.frame"]), float64(total["core.round"])), "share")

	var sinkNs, sinkEvents, metricsNs, metricsEvents float64
	for name, st := range traced.sinks {
		ns, ev := float64(st.ns.Load()), float64(st.events.Load())
		if name == "metrics.sink" {
			metricsNs, metricsEvents = ns, ev
		}
		sinkNs += ns
		sinkEvents += ev
	}
	ms.put("serve.sink_events", sinkEvents, "count")
	ms.put("serve.sink_us_per_event", deflate(share(sinkNs/1e3, sinkEvents), t.s), "us")
	ms.put("serve.sink_busy_share", share(sinkNs/1e9, roundWall), "share")
	ms.put("metrics.sink_us_per_event", deflate(share(metricsNs/1e3, metricsEvents), t.s), "us")
	dropped := 0.0
	if traced.ext.jsonl != nil {
		dropped = float64(traced.ext.jsonl.Dropped())
	}
	ms.put("serve.jsonl_dropped", dropped, "count")

	// Time to first picture. Cold starts that happen before the window opens
	// (the steady workloads' four) are deflated by the set-up slowdown.
	firstGOP, firstS := traced.firstGOPs(), t.s
	if wl.coldStartsInSetup {
		firstS, _, _ = rec.setupRef.slowdown()
	}
	if len(firstGOP) == 0 {
		return nil, fmt.Errorf("no session's first GOP was seen")
	}
	ms.put("serve.first_gop_ms_p50", deflate(median(firstGOP), firstS), "ms")
	ms.note("serve.first_gop_ms_p50", "n=%d", len(firstGOP))

	// The submit path: in-process SubmitWith, or the routed HTTP submit.
	submitP50 := 0.0
	if len(rec.submitDur) > 0 {
		submitP50 = median(rec.submitDur)
	}
	if traced.ext.http != nil {
		ms.put("serve.submit_us_p50", 0, "us")
		ms.put("dist.submit_rtt_ms_p50", deflate(submitP50/1e3, t.s), "ms")
		h := traced.ext.http
		h.mu.Lock()
		ms.put("dist.heartbeats", float64(h.heartbeats), "count")
		ms.put("dist.heartbeat_bytes_mean", share(float64(h.heartbeatBytes), float64(h.heartbeats)), "B")
		ms.put("dist.retries", float64(h.retryable), "count")
		h.mu.Unlock()
	} else {
		ms.put("serve.submit_us_p50", deflate(submitP50, t.s), "us")
		ms.put("dist.submit_rtt_ms_p50", 0, "ms")
		ms.put("dist.heartbeats", 0, "count")
		ms.put("dist.heartbeat_bytes_mean", 0, "B")
		ms.put("dist.retries", 0, "count")
	}

	ms.put("runtime.allocs_per_frame", float64(rec.memEnd.Mallocs-rec.memStart.Mallocs)/frames, "count")
	ms.put("runtime.gc_cycles", float64(rec.memEnd.NumGC-rec.memStart.NumGC), "count")
	ms.put("runtime.gc_pause_ms_total", float64(rec.memEnd.PauseTotalNs-rec.memStart.PauseTotalNs)/1e6, "ms")
	ms.put("runtime.heap_peak_mb", float64(rec.memEnd.HeapSys)/(1<<20), "MB")

	rawFPS := frames / t.wall.Seconds()
	traced.hostLines(ms, t)
	tp := plain.totals()
	ms.put("trace.overhead_share", 1-share(inflateRate(rawFPS, t.s), inflateRate(float64(tp.frames)/tp.wall.Seconds(), tp.s)), "share")

	// The probes, each deflated by the slowdown measured around them.
	ps := &probeSet{budget: traced.size.probe, ref: rec.winRef.host.phase(), raw: make(map[string]float64), ms: ms}
	ps.ref.sample(3)
	cfg := sessionConfig(wl.mode, wl.deterministic)
	var caps []*capturedGOP
	for i := range rec.units {
		caps = append(caps, rec.units[i].capturedGOPs...)
	}
	if err := ps.codecProbe(traced, cfg, caps); err != nil {
		return nil, err
	}
	// The block and analysis probes want moving content with a real
	// predecessor frame: the mid-stream captured GOP that cost the most bits.
	var probeGOP *capturedGOP
	for _, c := range caps {
		switch {
		case probeGOP == nil,
			probeGOP.report.Index == 0 && c.report.Index > 0,
			(c.report.Index > 0) == (probeGOP.report.Index > 0) && c.report.MeanKbps > probeGOP.report.MeanKbps:
			probeGOP = c
		}
	}
	src := traced.sourceOf(probeGOP)
	if src == nil {
		return nil, fmt.Errorf("probes: no source for the captured GOP")
	}
	first := probeGOP.report.Frames[0].Frame
	cur, prev := src.Frame(first+1), src.Frame(first)
	ps.blockProbes(cur, prev)
	if err := ps.analysisProbes(cfg, cur, prev, probeGOP.report.Grid); err != nil {
		return nil, err
	}
	if err := ps.stateProbes(traced); err != nil {
		return nil, err
	}
	if err := ps.wireProbes(traced); err != nil {
		return nil, err
	}
	sProbe, _, _ := ps.ref.slowdown()
	for _, d := range perLayerDefs {
		if v, ok := ps.raw[d.name]; ok {
			ms.put(d.name, deflate(v, sProbe), d.unit)
		}
	}
	return ms, ms.check()
}

// comparePasses is the determinism gate: two passes of one seed must agree
// on every session's digest chain and on every count.
func comparePasses(a, b *pass) []string {
	var problems []string
	ta, tb := a.totals(), b.totals()
	if ta.framesAll != tb.framesAll || ta.frames != tb.frames || ta.bits != tb.bits || ta.joules != tb.joules || ta.psnrSum != tb.psnrSum {
		problems = append(problems, fmt.Sprintf("untraced and traced passes differ: frames %d/%d, measured %d/%d, bits %d/%d, joules %v/%v",
			ta.framesAll, tb.framesAll, ta.frames, tb.frames, ta.bits, tb.bits, ta.joules, tb.joules))
	}
	for i := range a.rec.units {
		da, db := a.rec.units[i].digests, b.rec.units[i].digests
		if len(da) != len(db) {
			problems = append(problems, fmt.Sprintf("unit %d served %d sessions untraced, %d traced", i, len(da), len(db)))
			continue
		}
		for id, chain := range da {
			other := db[id]
			if len(chain) != len(other) {
				problems = append(problems, fmt.Sprintf("unit %d session %d: %d GOPs untraced, %d traced", i, id, len(chain), len(other)))
				continue
			}
			for g := range chain {
				if chain[g] != other[g] {
					problems = append(problems, fmt.Sprintf("unit %d session %d GOP %d: digest %x untraced, %x traced", i, id, g, chain[g], other[g]))
					break
				}
			}
		}
	}
	if len(problems) > 8 {
		problems = append(problems[:8], fmt.Sprintf("… and %d more", len(problems)-8))
	}
	return problems
}
