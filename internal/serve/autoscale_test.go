package serve

import (
	"context"
	"sync"
	"testing"
)

// obsOf builds a homogeneous-fleet observation: live shards of shardCap
// cores each, carrying the given summed core demand.
func obsOf(live, demand, shardCap int) loadObservation {
	return loadObservation{live: live, demand: demand, capacity: live * shardCap, retireCap: shardCap}
}

// TestScalePolicyNoFlapHysteresis is the serve-layer no-flap guarantee: a
// load oscillating around the scale-up threshold — saturated one round,
// back under it the next — must never trigger a resize, because every
// contrary observation resets the hysteresis window. Same for the
// scale-down threshold.
func TestScalePolicyNoFlapHysteresis(t *testing.T) {
	p := newScalePolicy(AutoscaleConfig{MinShards: 1, MaxShards: 4, TargetUtil: 0.5, Window: 2})

	// 2 shards × 32 cores, target util 0.5: saturated above 32 demanded
	// cores, idle (one shard retirable) at or below 16.
	for round := 0; round < 40; round++ {
		demand := 33 // one over the saturation threshold...
		if round%2 == 1 {
			demand = 32 // ...then exactly at it (not saturated, not idle)
		}
		if n, reason, ok := p.observe(round, obsOf(2, demand, 32)); ok {
			t.Fatalf("round %d: oscillating load triggered resize to %d (%s)", round, n, reason)
		}
	}

	// Oscillation around the scale-down threshold: idle, then busy again.
	for round := 0; round < 40; round++ {
		demand := 16 // at the idle threshold...
		if round%2 == 1 {
			demand = 17 // ...then just above it
		}
		if n, reason, ok := p.observe(round, obsOf(2, demand, 32)); ok {
			t.Fatalf("round %d: oscillating load triggered shrink to %d (%s)", round, n, reason)
		}
	}

	// Control: the same load *sustained* for the window does resize.
	if _, _, ok := p.observe(0, obsOf(2, 33, 32)); ok {
		t.Fatal("resized before the window elapsed")
	}
	n, reason, ok := p.observe(1, obsOf(2, 33, 32))
	if !ok || n != 3 {
		t.Fatalf("sustained saturation: got (%d, %q, %v), want grow to 3", n, reason, ok)
	}
}

// TestScalePolicyHeterogeneousShrink: the shrink test prices the shard a
// shrink would actually retire (the highest-indexed alive one) — on a
// heterogeneous fleet the same demand that is comfortably idle when the
// retiring shard is small must hold the fleet when the retiring shard is
// the big one.
func TestScalePolicyHeterogeneousShrink(t *testing.T) {
	// 8+32 cores, 18 demanded: retiring the 8-core shard leaves util
	// 18/32 ≤ 0.6 — shrink.
	p := newScalePolicy(AutoscaleConfig{MinShards: 1, MaxShards: 2, TargetUtil: 0.6, Window: 1})
	small := loadObservation{live: 2, demand: 18, capacity: 40, retireCap: 8}
	if n, _, ok := p.observe(0, small); !ok || n != 1 {
		t.Fatalf("retiring the small shard: got (%d, %v), want shrink to 1", n, ok)
	}

	// Same fleet, same demand, but the retiring shard is the 32-core one:
	// 18/8 would overload — must hold.
	p = newScalePolicy(AutoscaleConfig{MinShards: 1, MaxShards: 2, TargetUtil: 0.6, Window: 1})
	big := loadObservation{live: 2, demand: 18, capacity: 40, retireCap: 32}
	if n, _, ok := p.observe(0, big); ok {
		t.Fatalf("retiring the big shard would overload, but policy shrank to %d", n)
	}
}

// TestScalePolicyBoundsAndSchedule: a pending schedule outranks the load
// policy and is never clamped into silence (validation widens the
// bounds); the load policy respects min/max.
func TestScalePolicyBoundsAndSchedule(t *testing.T) {
	cfg := AutoscaleConfig{MinShards: 2, MaxShards: 3, Window: 1, TargetUtil: 0.5,
		Schedule: []ScheduledResize{{AfterRounds: 5, Shards: 4}}}
	if err := validateAutoscale(&cfg, 2); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxShards != 4 {
		t.Fatalf("schedule did not widen MaxShards: %d", cfg.MaxShards)
	}
	p := newScalePolicy(cfg)
	// Saturated load before the schedule fires: suppressed.
	if _, _, ok := p.observe(1, obsOf(2, 100, 32)); ok {
		t.Fatal("load policy fired while a schedule was pending")
	}
	n, reason, ok := p.observe(5, obsOf(2, 0, 32))
	if !ok || n != 4 || reason != "scheduled" {
		t.Fatalf("schedule: got (%d, %q, %v), want scheduled resize to 4", n, reason, ok)
	}
	// Schedule drained: the load policy is live again, clamped to max.
	if n, _, ok := p.observe(6, obsOf(4, 1000, 32)); ok || n != 0 {
		t.Fatalf("grew past MaxShards: (%d, %v)", n, ok)
	}
	if n, _, ok := p.observe(7, obsOf(3, 1000, 32)); !ok || n != 4 {
		t.Fatalf("saturation under max: got (%d, %v), want grow to 4", n, ok)
	}

	// Validation errors.
	bad := AutoscaleConfig{MinShards: 3, MaxShards: 2}
	if err := validateAutoscale(&bad, 3); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	out := AutoscaleConfig{MinShards: 2, MaxShards: 3}
	if err := validateAutoscale(&out, 5); err == nil {
		t.Fatal("initial shards outside bounds accepted")
	}
	if _, err := New(WithShards(1), WithAutoscale(AutoscaleConfig{MinShards: 2, MaxShards: 4})); err == nil {
		t.Fatal("New accepted a fleet outside its autoscale bounds")
	}
}

// TestFleetAutoscaleGrowsUnderLoad: the in-Run scaling loop really
// resizes a saturated fleet — 3 sessions' demand on one 32-core shard is
// well past a 0.05 target utilization, so the fleet grows toward
// MaxShards 2 — and the run still completes everything.
func TestFleetAutoscaleGrowsUnderLoad(t *testing.T) {
	sink := &recordingSink{}
	var mu sync.Mutex
	var resizes []int
	f, err := New(WithShards(1), WithSink(sink), WithAutoscale(AutoscaleConfig{
		MinShards:  1,
		MaxShards:  2,
		TargetUtil: 0.05,
		Window:     1,
		OnResize: func(from, to int, reason string) {
			mu.Lock()
			resizes = append(resizes, to)
			mu.Unlock()
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "auto", int64(i+1), 16), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 3 || rep.Completed != 3 || rep.Failed != 0 {
		t.Fatalf("report %+v, want all 3 completed", rep)
	}
	if rep.FramesEncoded != 48 || rep.GOPReports != 12 {
		t.Fatalf("frames/GOPs %d/%d, want 48/12 — the grow lost work", rep.FramesEncoded, rep.GOPReports)
	}
	sink.mu.Lock()
	added := len(sink.added)
	sink.mu.Unlock()
	if added == 0 {
		t.Fatal("sustained saturation never grew the fleet")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(resizes) == 0 || resizes[0] != 2 {
		t.Fatalf("OnResize calls %v, want first grow to 2", resizes)
	}
}

// TestFleetAutoscaleScheduleDrivesResizes: a forced schedule grows and
// shrinks a live fleet at the configured round counts without losing
// work — the -resize-at path of cmd/transcode, now inside serve.
func TestFleetAutoscaleScheduleDrivesResizes(t *testing.T) {
	sink := &recordingSink{}
	f, err := New(WithShards(2), WithSink(sink), WithAutoscale(AutoscaleConfig{
		Schedule: []ScheduledResize{{AfterRounds: 2, Shards: 3}, {AfterRounds: 6, Shards: 2}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	for i, class := range classes {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 32), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 2 || rep.Completed != 2 || rep.Failed != 0 {
		t.Fatalf("report %+v, want both sessions completed", rep)
	}
	if rep.FramesEncoded != 64 || rep.GOPReports != 16 {
		t.Fatalf("frames/GOPs %d/%d, want 64/16", rep.FramesEncoded, rep.GOPReports)
	}
	sink.mu.Lock()
	added, removed := len(sink.added), len(sink.removed)
	sink.mu.Unlock()
	if added != 1 || removed != 1 {
		t.Fatalf("shard events %d added / %d removed, want 1/1 (scheduled 2→3→2)", added, removed)
	}
}
