package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

// lr builds one alive member's load report.
func lr(sessions, demand, capacity int) core.LoadReport {
	return core.LoadReport{Sessions: sessions, DemandCores: demand, CapacityCores: capacity,
		Util: utilOf(demand, capacity), Alive: true}
}

// loadsOf builds a homogeneous snapshot: live shards of shardCap cores
// each, the summed core demand carried by the first (the scale decision
// reads sums only).
func loadsOf(live, demand, shardCap int) []core.LoadReport {
	out := make([]core.LoadReport, live)
	for i := range out {
		out[i] = lr(0, 0, shardCap)
	}
	out[0] = lr(demand, demand, shardCap)
	return out
}

// TestHysteresis: the window fires after controlWindow consecutive
// observations on its side, restarts after firing, and any contrary
// observation resets the count.
func TestHysteresis(t *testing.T) {
	for _, tc := range []struct {
		obs  string // 1 = on this side, 0 = contrary
		want string // f = fired
	}{
		{"1", "."},
		{"11", ".f"},
		{"1111", ".f.f"},
		{"111", ".f."},
		{"1011", "...f"},
		{"101010", "......"},
		{"0011", "...f"},
	} {
		var h hysteresis
		got := ""
		for _, c := range tc.obs {
			if h.observe(c == '1') {
				got += "f"
			} else {
				got += "."
			}
		}
		if got != tc.want {
			t.Errorf("observations %s fired %s, want %s", tc.obs, got, tc.want)
		}
	}
}

func TestSumLoads(t *testing.T) {
	got := SumLoads([]core.LoadReport{lr(2, 6, 8), {}, lr(1, 2, 32)})
	if want := (core.LoadReport{Sessions: 3, DemandCores: 8, CapacityCores: 40, Util: 0.2, Alive: true}); got != want {
		t.Fatalf("SumLoads = %+v, want %+v (dead members excluded)", got, want)
	}
	if got := SumLoads([]core.LoadReport{{}, {}}); got != (core.LoadReport{}) {
		t.Fatalf("all-dead SumLoads = %+v, want the zero report", got)
	}
}

// TestScalePolicyNoFlapHysteresis is the serve-layer no-flap guarantee: a
// load oscillating around the scale-up threshold — saturated one round,
// back under it the next — must never trigger a resize, because every
// contrary observation resets the hysteresis window. Same for the
// scale-down threshold.
func TestScalePolicyNoFlapHysteresis(t *testing.T) {
	p := newScalePolicy(AutoscaleConfig{MinShards: 1, MaxShards: 4, TargetUtil: 0.5})

	// 2 shards × 32 cores, target util 0.5: saturated above 32 demanded
	// cores, idle (one shard retirable) at or below 16.
	for round := 0; round < 40; round++ {
		demand := 33 // one over the saturation threshold...
		if round%2 == 1 {
			demand = 32 // ...then exactly at it (not saturated, not idle)
		}
		if n, reason, ok := p.observe(round, loadsOf(2, demand, 32)); ok {
			t.Fatalf("round %d: oscillating load triggered resize to %d (%s)", round, n, reason)
		}
	}

	// Oscillation around the scale-down threshold: idle, then busy again.
	for round := 0; round < 40; round++ {
		demand := 16 // at the idle threshold...
		if round%2 == 1 {
			demand = 17 // ...then just above it
		}
		if n, reason, ok := p.observe(round, loadsOf(2, demand, 32)); ok {
			t.Fatalf("round %d: oscillating load triggered shrink to %d (%s)", round, n, reason)
		}
	}

	// Control: the same load *sustained* for the window does resize.
	if _, _, ok := p.observe(0, loadsOf(2, 33, 32)); ok {
		t.Fatal("resized before the window elapsed")
	}
	n, reason, ok := p.observe(1, loadsOf(2, 33, 32))
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
	// 32+8 cores, 18 demanded: retiring the 8-core shard leaves util
	// 18/32 ≤ 0.6 — shrink once the window elapses. A dead slot between
	// them changes nothing.
	p := newScalePolicy(AutoscaleConfig{MinShards: 1, MaxShards: 2, TargetUtil: 0.6})
	small := []core.LoadReport{lr(3, 18, 32), {}, lr(0, 0, 8)}
	if _, _, ok := p.observe(0, small); ok {
		t.Fatal("shrank before the window elapsed")
	}
	if n, _, ok := p.observe(1, small); !ok || n != 1 {
		t.Fatalf("retiring the small shard: got (%d, %v), want shrink to 1", n, ok)
	}

	// Same fleet, same demand, but the retiring shard is the 32-core one:
	// 18/8 would overload — must hold however long it lasts.
	p = newScalePolicy(AutoscaleConfig{MinShards: 1, MaxShards: 2, TargetUtil: 0.6})
	big := []core.LoadReport{lr(3, 18, 8), lr(0, 0, 32)}
	for round := 0; round < 4; round++ {
		if n, _, ok := p.observe(round, big); ok {
			t.Fatalf("retiring the big shard would overload, but policy shrank to %d", n)
		}
	}
}

// TestScalePolicyBoundsAndSchedule: a pending schedule outranks the load
// policy and is never clamped into silence (validation widens the
// bounds); the load policy respects min/max.
func TestScalePolicyBoundsAndSchedule(t *testing.T) {
	cfg := AutoscaleConfig{MinShards: 2, MaxShards: 3, TargetUtil: 0.5,
		Schedule: []ScheduledResize{{AfterRounds: 5, Shards: 4}}}
	if err := validateAutoscale(&cfg, 2); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxShards != 4 {
		t.Fatalf("schedule did not widen MaxShards: %d", cfg.MaxShards)
	}
	p := newScalePolicy(cfg)
	// Saturated load before the schedule fires: suppressed.
	for round := 1; round < 5; round++ {
		if _, _, ok := p.observe(round, loadsOf(2, 100, 32)); ok {
			t.Fatal("load policy fired while a schedule was pending")
		}
	}
	n, reason, ok := p.observe(5, loadsOf(2, 0, 32))
	if !ok || n != 4 || reason != "scheduled" {
		t.Fatalf("schedule: got (%d, %q, %v), want scheduled resize to 4", n, reason, ok)
	}
	// Schedule drained: the load policy is live again, clamped to max.
	for round := 6; round < 8; round++ {
		if n, _, ok := p.observe(round, loadsOf(4, 1000, 32)); ok || n != 0 {
			t.Fatalf("grew past MaxShards: (%d, %v)", n, ok)
		}
	}
	if _, _, ok := p.observe(8, loadsOf(3, 1000, 32)); ok {
		t.Fatal("grew before the window elapsed")
	}
	if n, _, ok := p.observe(9, loadsOf(3, 1000, 32)); !ok || n != 4 {
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

// TestHotShard: the hot test needs two alive members, two queued sessions
// on the candidate, and its utilization above factor × the alive mean.
func TestHotShard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		loads []core.LoadReport
		want  bool
	}{
		{"skewed", []core.LoadReport{lr(4, 4, 16), lr(0, 0, 16), lr(0, 0, 16)}, true},
		{"balanced", []core.LoadReport{lr(2, 2, 16), lr(2, 2, 16)}, false},
		{"at the factor", []core.LoadReport{lr(4, 4, 16), lr(2, 2, 16), lr(0, 0, 16)}, false}, // 4/16 = 2 × mean 2/16
		{"one session", []core.LoadReport{lr(1, 8, 16), lr(0, 0, 16), lr(0, 0, 16)}, false},
		{"alone", []core.LoadReport{lr(4, 4, 16), {}}, false},
		{"idle fleet", []core.LoadReport{lr(2, 0, 16), lr(0, 0, 16)}, false},
		{"draining", []core.LoadReport{{}, lr(2, 2, 16), lr(0, 0, 16)}, false},
	} {
		if got, _ := hotShard(tc.loads, 0, 2); got != tc.want {
			t.Errorf("%s: hot %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, mean := hotShard([]core.LoadReport{lr(4, 8, 16), {}, lr(0, 0, 16)}, 0, 2); mean != 0.25 {
		t.Errorf("mean utilization %v over the alive members, want 0.25", mean)
	}
}

// TestShedVictim: the queued session whose demand best closes the gap
// goes first, ties to the newest id, so one heavy session is shed before
// many light ones.
func TestShedVictim(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued []victim
		gap    int
		want   int // id
	}{
		{"exact fit", []victim{{0, 1}, {1, 3}, {2, 2}}, 2, 2},
		{"tie to newest", []victim{{0, 1}, {1, 3}}, 2, 1},
		{"heavy over many light", []victim{{0, 1}, {1, 1}, {2, 5}, {3, 1}}, 5, 2},
		{"overshoot closer than undershoot", []victim{{0, 1}, {1, 4}}, 3, 1},
		{"only one", []victim{{7, 9}}, 1, 7},
	} {
		if got := tc.queued[shedVictim(tc.queued, tc.gap)].id; got != tc.want {
			t.Errorf("%s: shed session %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPlacementOrder pins the one ordering Submit, drain, Import, the
// shed target and the dist master share.
func TestPlacementOrder(t *testing.T) {
	dead := core.LoadReport{}
	for _, tc := range []struct {
		name                   string
		loads                  []core.LoadReport
		home, demand, capacity int
		want                   []int
	}{
		{"home first, then least utilized", []core.LoadReport{lr(2, 2, 16), lr(3, 3, 16), lr(1, 1, 16)},
			0, 0, 0, []int{0, 2, 1}},
		{"home over capacity", []core.LoadReport{lr(2, 2, 16), lr(3, 3, 16), lr(1, 1, 16)},
			0, 0, 2, []int{2, 0, 1}},
		{"home under capacity", []core.LoadReport{lr(1, 1, 16), lr(0, 0, 16)},
			0, 0, 2, []int{0, 1}},
		{"home without the free cores", []core.LoadReport{lr(6, 6, 8), lr(0, 0, 16), lr(0, 0, 32)},
			0, 4, 0, []int{1, 2, 0}},
		{"home with the free cores", []core.LoadReport{lr(2, 2, 8), lr(0, 0, 16)},
			0, 4, 0, []int{0, 1}},
		{"best-fit band before spill", []core.LoadReport{lr(1, 5, 8), lr(0, 0, 32), lr(4, 12, 16), lr(0, 0, 4), lr(1, 1, 8)},
			-1, 4, 0, []int{2, 3, 4, 1, 0}},
		{"best-fit ties to the lower index", []core.LoadReport{lr(0, 0, 8), lr(0, 0, 8)},
			-1, 2, 0, []int{0, 1}},
		{"spill ties to fewer sessions", []core.LoadReport{lr(3, 4, 16), lr(1, 4, 16), lr(2, 2, 16)},
			-1, 0, 0, []int{2, 1, 0}},
		{"spill ties to the lower index", []core.LoadReport{lr(1, 2, 16), lr(1, 2, 16)},
			-1, 0, 0, []int{0, 1}},
		{"dead members never appear", []core.LoadReport{dead, lr(1, 1, 16), dead, lr(0, 0, 16)},
			0, 0, 0, []int{3, 1}},
		{"donor excluded", []core.LoadReport{{Sessions: 4, DemandCores: 4, CapacityCores: 16}, lr(2, 2, 16), lr(1, 2, 16)},
			-1, 0, 0, []int{2, 1}},
		{"nobody alive", []core.LoadReport{dead, dead}, 0, 1, 0, []int{}},
	} {
		if got := PlacementOrder(tc.loads, tc.home, tc.demand, tc.capacity); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: order %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFleetAutoscaleGrowsUnderLoad: the in-Run scaling loop really
// resizes a saturated fleet — 3 sessions' demand on one 16-core shard is
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

// hotFleet builds an n-shard fleet with rebalancing configured and
// sessions of one class all homed on the same shard — the skew a hot
// shard is made of. Returns the fleet, the hot class, and its home.
func hotFleet(t *testing.T, shards int, cfg RebalanceConfig, sink Sink) (*Fleet, string, int) {
	t.Helper()
	opts := []Option{WithShards(shards), WithRebalance(cfg)}
	if sink != nil {
		opts = append(opts, WithSink(sink))
	}
	f, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	class := classHomedOn(t, f, 0)
	return f, class, 0
}

// TestRebalanceShedsHotShardBitIdentical is the acceptance scenario: a
// fixed-size fleet whose class routing piled every session on shard 0
// sheds the newest sessions to the idle peer at a GOP boundary — zero
// frames or GOP reports lost, and each rebalanced session's stitched
// digest chain equal to the same session served without rebalancing.
func TestRebalanceShedsHotShardBitIdentical(t *testing.T) {
	const frames = 24 // 6 GOPs of 4
	sink := &recordingSink{}
	f, class, home := hotFleet(t, 2, RebalanceConfig{Factor: 1.2}, sink)
	const sessions = 4
	for i := 0; i < sessions; i++ {
		p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), frames), Config: testSessionConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if p.Shard != home {
			t.Fatalf("session %d landed on shard %d, want the hot home %d", i, p.Shard, home)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Nothing lost, nobody failed, and the fleet really rebalanced.
	if rep.Submitted != sessions || rep.Completed != sessions || rep.Failed != 0 || rep.Rejected != 0 {
		t.Fatalf("report %+v, want all %d unique sessions completed", rep, sessions)
	}
	if rep.FramesEncoded != sessions*frames || rep.GOPReports != sessions*frames/4 {
		t.Fatalf("frames/GOPs %d/%d, want %d/%d — rebalancing lost work",
			rep.FramesEncoded, rep.GOPReports, sessions*frames, sessions*frames/4)
	}
	if rep.Rebalanced == 0 {
		t.Fatal("hot shard never shed a session")
	}
	if rep.Rebalanced != rep.Migrated {
		t.Fatalf("%d migration hops but %d rebalances — no resize ran, they must match",
			rep.Migrated, rep.Rebalanced)
	}

	sink.mu.Lock()
	rebalances := append([]MigrationEvent(nil), sink.rebalances...)
	added, removed := len(sink.added), len(sink.removed)
	sink.mu.Unlock()
	if added != 0 || removed != 0 {
		t.Fatalf("rebalancing changed the fleet size: %d added, %d removed", added, removed)
	}
	if len(rebalances) != rep.Rebalanced {
		t.Fatalf("sink saw %d rebalances, report says %d", len(rebalances), rep.Rebalanced)
	}
	for _, e := range rebalances {
		if e.FromShard != home || e.ToShard == home || e.Class != class {
			t.Fatalf("rebalance event %+v inconsistent with the hot shard", e)
		}
		if e.Frame%4 != 0 || e.Frame == 0 || e.Frame >= frames {
			t.Fatalf("rebalanced at frame %d — not a mid-stream GOP boundary", e.Frame)
		}
	}

	// Bit-identity per rebalanced session: its digest chain across both
	// shards equals the same source served solo. The submission seed is
	// recoverable from the donor-side session id (submitted in order).
	for _, e := range rebalances {
		got, gotFrames := stitchDigests(sink, e.FromShard, e.FromSession)
		want := soloDigests(t, testSource(t, class, int64(e.FromSession+1), frames))
		if gotFrames != frames {
			t.Fatalf("rebalanced session %d: %d frames observed, want %d", e.FromSession, gotFrames, frames)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("rebalanced session %d digest chain differs from the unrebalanced run:\n got %v\nwant %v",
				e.FromSession, got, want)
		}
	}
}

// TestRebalanceQuietOnBalancedFleet: a fleet with even load never
// rebalances.
func TestRebalanceQuietOnBalancedFleet(t *testing.T) {
	sink := &recordingSink{}
	f, err := New(WithShards(2), WithRebalance(RebalanceConfig{Factor: 1.2}), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	classes := classesPerShard(t, f)
	for i, class := range classes {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 8), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Rebalanced != 0 {
		t.Fatalf("report %+v, want 2 completed with zero rebalances", rep)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.rebalances) != 0 {
		t.Fatalf("balanced fleet emitted rebalance events: %+v", sink.rebalances)
	}
}

// TestRebalanceHysteresisHoldsWithinWindow: a hot shard must stay put
// until it has been hot for controlWindow consecutive rounds — a skew
// shorter than the window never triggers a shed. Two-GOP sessions are
// hot at their one mid-stream boundary and gone at the next.
func TestRebalanceHysteresisHoldsWithinWindow(t *testing.T) {
	sink := &recordingSink{}
	f, class, home := hotFleet(t, 2, RebalanceConfig{Factor: 1.2}, sink)
	for i := 0; i < 3; i++ {
		p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 8), Config: testSessionConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if p.Shard != home {
			t.Fatalf("session %d landed on shard %d, want %d", i, p.Shard, home)
		}
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 || rep.Failed != 0 {
		t.Fatalf("report %+v, want 3 completed", rep)
	}
	if rep.Rebalanced != 0 {
		t.Fatalf("%d rebalances before the hysteresis window elapsed", rep.Rebalanced)
	}
}

// TestRebalanceConfigValidation: a factor at or under 1 (every shard is
// always "hot") is refused, and the zero value defaults.
func TestRebalanceConfigValidation(t *testing.T) {
	if _, err := New(WithRebalance(RebalanceConfig{Factor: 1.0})); err == nil {
		t.Fatal("factor 1.0 accepted")
	}
	f, err := New(WithShards(2), WithRebalance(RebalanceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg := f.opts.rebalance; cfg.Factor != 1.5 {
		t.Fatalf("defaults %+v, want factor 1.5", cfg)
	}
}

// TestControlLoopsTogether runs all three loops at once — the shape of
// ROADMAP item 6(a)'s elastic_skew as a tier-1 test: a mixed 8/16/32-core
// fleet with demand-aware placement, rebalancing and autoscaling, one hot
// class piled on the small shard and a "-4k" class homed there too, tiles
// priced at 800 ns per luma pixel so the warmed 640×480 stream demands six
// cores — enough for autoscale to grow the fleet, which the default work
// model's fraction of a core is not. Whatever the loops decide and
// whenever they collide, nothing may be lost, every session's digest chain
// across its hops equals its solo run, and the event-derived report equals
// the ledger.
func TestControlLoopsTogether(t *testing.T) {
	const hotSessions, hotFrames, fourKFrames = 6, 24, 8
	cfg := testSessionConfig()
	cfg.TimeModel = pixelCostModel(800)
	ring, sink := NewRingSink(256), &recordingSink{}
	f, err := New(
		WithPlatforms(heteroPlatform(8), heteroPlatform(16), heteroPlatform(32)),
		WithDemandPlacement(PlacementConfig{}),
		WithRebalance(RebalanceConfig{Factor: 1.2}),
		WithAutoscale(AutoscaleConfig{MaxShards: 4, TargetUtil: 0.15}),
		WithSink(ring), WithMetrics(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	hot := classHomedOn(t, f, 0)
	fourK := ""
	for i := 0; fourK == ""; i++ {
		if c := fmt.Sprintf("skew-%d-4k", i); f.HomeShard(c) == 0 {
			fourK = c
		}
	}

	type submitted struct {
		shard, session int
		src            core.FrameSource
	}
	var subs []submitted
	submit := func(src core.FrameSource) Placement {
		t.Helper()
		p, err := f.SubmitWith(SubmitRequest{Source: src, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, submitted{p.Shard, p.Session.ID, src})
		return p
	}
	for i := 0; i < hotSessions; i++ {
		if p := submit(testSource(t, hot, int64(i+1), hotFrames)); p.Shard != 0 {
			t.Fatalf("hot session %d placed on shard %d, want its home 0 (it has the free cores)", i, p.Shard)
		}
	}
	// Six one-core sessions leave the 8-core home two free cores: the
	// 640×480 stream (priced at four) is steered to the best fit, the
	// 16-core shard.
	if p := submit(studySource(t, fourK, 7, fourKFrames, 640, 480)); p.Shard != 1 {
		t.Fatalf("4k session placed on shard %d, want the best-fit 16-core shard 1", p.Shard)
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if rep.Submitted != len(subs) || rep.Completed != len(subs) || rep.Failed != 0 || rep.Rejected != 0 {
		t.Fatalf("want all %d sessions completed:\n%s", len(subs), describe(rep))
	}
	if want := hotSessions*hotFrames + fourKFrames; rep.FramesEncoded != want || rep.GOPReports != want/4 {
		t.Fatalf("frames/GOPs %d/%d, want %d/%d — a loop lost work", rep.FramesEncoded, rep.GOPReports, want, want/4)
	}
	sink.mu.Lock()
	added, removed := len(sink.added), len(sink.removed)
	migrations, rebalances := len(sink.migrations), len(sink.rebalances)
	sink.mu.Unlock()
	if rebalances != rep.Rebalanced || migrations+rebalances != rep.Migrated {
		t.Fatalf("sink saw %d migrations + %d rebalances, report says %d hops, %d rebalances",
			migrations, rebalances, rep.Migrated, rep.Rebalanced)
	}
	t.Logf("%d shards added, %d removed, %d hops (%d rebalances)", added, removed, rep.Migrated, rep.Rebalanced)

	for _, s := range subs {
		got, frames := stitchDigests(sink, s.shard, s.session)
		if want := soloDigests(t, s.src); fmt.Sprint(got) != fmt.Sprint(want) || frames != s.src.Len() {
			t.Fatalf("session %d/%d (%s): %d frames, digest chain across its hops differs from the solo run:\n got %v\nwant %v",
				s.shard, s.session, s.src.Class(), frames, got, want)
		}
	}
	if got := ring.Report(); !reflect.DeepEqual(got, rep) {
		t.Fatalf("event-derived view differs from the ledger:\n ring %s\nfleet %s", describe(got), describe(rep))
	}
}
