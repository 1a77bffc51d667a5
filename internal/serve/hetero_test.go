package serve

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/mpsoc"
)

// The heterogeneous-fleet acceptance scenario (DESIGN.md §7): a small and
// a big shard, several light sessions and one heavy 4×-area session whose
// classes all home on the SMALL shard. Demand-blind class routing piles
// everyone there and the heavy session — whose warmed core demand exceeds
// the small platform outright — rides the admission ladder to rejection.
// Demand-aware placement prices the heavy session before admission and
// steers it to the big shard, where it streams at full service. The two
// runs differ in exactly one option (WithDemandPlacement), so the ladder
// outcomes are attributable to placement alone.

// heteroPlatform builds an n-core platform shard.
func heteroPlatform(cores int) *mpsoc.Platform {
	p := mpsoc.XeonE5_2667V4()
	p.Cores = cores
	return p
}

// pixelCostModel charges every tile a fixed CPU time per luma pixel, so a
// session's warmed per-frame estimate is area × nsPerPixel regardless of
// how the re-tiler splits the frame. Tests use it for a heavy session
// whose scenario needs a demand of several cores: the default work model
// prices a 256×192 frame at about a tenth of a core.
func pixelCostModel(nsPerPixel float64) func(codec.TileStats) time.Duration {
	return func(ts codec.TileStats) time.Duration {
		return time.Duration(float64(ts.Tile.Area()) * nsPerPixel)
	}
}

// classesHomedOn finds n distinct class names all homed on one shard.
func classesHomedOn(t *testing.T, f *Fleet, shard, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		class := fmt.Sprintf("hclass-%d-%d", shard, i)
		if f.HomeShard(class) == shard {
			out = append(out, class)
		}
	}
	if len(out) != n {
		t.Fatalf("could not find %d classes homed on shard %d", n, shard)
	}
	return out
}

// runSkewedDemand serves 3 light sessions plus 1 heavy one on a 4+16-core
// fleet, all classes homed on the small shard 0, and returns the fleet
// report, the sink, and the heavy session's placed shard. At 800 ns per
// luma pixel the heavy 640×480 stream warms to a demand of
// ceil(307200·800ns·24fps) = 6 cores — more than the whole small shard,
// well within the big one — while the 256×192 lights, on the default work
// model, stay at 1 core each.
func runSkewedDemand(t *testing.T, demandAware bool) (*Report, *recordingSink, int) {
	t.Helper()
	sink := &recordingSink{}
	opts := []Option{
		WithPlatforms(heteroPlatform(4), heteroPlatform(16)),
		WithSink(sink),
		WithAdmission(core.AdmissionConfig{Enabled: true, MaxQueueRounds: 3}),
	}
	if demandAware {
		opts = append(opts, WithDemandPlacement(PlacementConfig{PixelsPerCore: 1.5e6}))
	}
	f, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	classes := classesHomedOn(t, f, 0, 2)
	lightClass, heavyClass := classes[0], classes[1]

	// Lights: coarse initial grids keep the cold 5 ms-per-tile prior at a
	// small demand, so the lights are all admitted within a round or two.
	for i := 0; i < 3; i++ {
		cfg := testSessionConfig()
		cfg.Retile.MinTileW, cfg.Retile.MinTileH = 84, 64
		p, err := f.SubmitWith(SubmitRequest{Source: testSource(t, lightClass, int64(i+1), 16), Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if p.Shard != 0 {
			t.Fatalf("light session %d placed on shard %d, want home 0", i, p.Shard)
		}
	}
	heavyCfg := testSessionConfig()
	heavyCfg.Retile.MinTileW, heavyCfg.Retile.MinTileH = 208, 160
	heavyCfg.TimeModel = pixelCostModel(800)
	heavy, err := f.SubmitWith(SubmitRequest{Source: studySource(t, heavyClass, 7, 16, 640, 480), Config: heavyCfg})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, sink, heavy.Shard
}

// TestSkewedDemandPlacementBeatsSessionCount is the PR's acceptance
// criterion: on the small+big fleet with every class homed on the small
// shard, demand-blind routing rejects the heavy session off the admission
// ladder while demand-aware placement serves everyone — a strictly
// shallower ladder outcome, attributable to placement alone.
func TestSkewedDemandPlacementBeatsSessionCount(t *testing.T) {
	countRep, _, countShard := runSkewedDemand(t, false)
	demandRep, demandSink, demandShard := runSkewedDemand(t, true)

	// Demand-blind: class routing piles the heavy session onto its home.
	if countShard != 0 {
		t.Fatalf("demand-blind run placed the heavy session on shard %d, want home 0", countShard)
	}
	// Its warmed 6-core demand never fits the 4-core platform again: the
	// ladder bottoms out in rejection.
	if countRep.Rejected != 1 || countRep.Completed != 3 {
		t.Fatalf("demand-blind report %+v, want 3 completed and the heavy session rejected", countRep)
	}

	// Demand-aware: the heavy session is priced before admission and
	// steered to the big shard, where it streams at full service.
	if demandShard != 1 {
		t.Fatalf("demand-aware run placed the heavy session on shard %d, want big shard 1", demandShard)
	}
	if demandRep.Rejected != 0 || demandRep.Completed != 4 {
		t.Fatalf("demand-aware report %+v, want all 4 completed with zero rejections", demandRep)
	}
	// Zero lost GOP reports: 4 sessions × 16 frames in GOPs of 4.
	if demandRep.FramesEncoded != 64 || demandRep.GOPReports != 16 {
		t.Fatalf("demand-aware frames/GOPs %d/%d, want 64/16", demandRep.FramesEncoded, demandRep.GOPReports)
	}

	// The placement event carries the pre-admission estimate that steered
	// the decision: ceil(640·480·24 / 1.5e6) = 5 cores, home 0, shard 1.
	demandSink.mu.Lock()
	defer demandSink.mu.Unlock()
	var heavyPlacement *PlacementEvent
	for i := range demandSink.placements {
		if e := demandSink.placements[i]; e.Shard == 1 {
			heavyPlacement = &e
		}
	}
	if heavyPlacement == nil {
		t.Fatal("no placement event for the heavy session on shard 1")
	}
	if heavyPlacement.Home != 0 || heavyPlacement.DemandCores != 5 {
		t.Fatalf("heavy placement %+v, want home 0 with a 5-core estimate", heavyPlacement)
	}
	if len(demandSink.placements) != 4 {
		t.Fatalf("%d placement events, want one per submission", len(demandSink.placements))
	}
}

// TestLoadReportInvariants pins the structural guarantees every consumer
// of the load signal relies on: for live shards Util is non-negative and
// exactly DemandCores/CapacityCores, DemandCores never undercuts the
// session count (each queued session carries at least its one-core
// floor), and capacity reflects the shard's own platform.
func TestLoadReportInvariants(t *testing.T) {
	sink := &recordingSink{}
	f, err := New(
		WithPlatforms(heteroPlatform(4), heteroPlatform(16)),
		WithSink(sink),
		WithDemandPlacement(PlacementConfig{PixelsPerCore: 1.5e6}),
	)
	if err != nil {
		t.Fatal(err)
	}
	classes := classesHomedOn(t, f, 0, 1)
	for i := 0; i < 4; i++ {
		cfg := testSessionConfig()
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, classes[0], int64(i+1), 8), Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	checkReport := func(ctx string, r core.LoadReport) {
		t.Helper()
		if !r.Alive {
			t.Fatalf("%s: live shard reported dead: %+v", ctx, r)
		}
		if r.CapacityCores != 4 && r.CapacityCores != 16 {
			t.Fatalf("%s: capacity %d matches neither platform", ctx, r.CapacityCores)
		}
		if r.DemandCores < r.Sessions {
			t.Fatalf("%s: demand %d undercuts %d sessions", ctx, r.DemandCores, r.Sessions)
		}
		want := float64(r.DemandCores) / float64(r.CapacityCores)
		if r.Util < 0 || math.Abs(r.Util-want) > 1e-12 {
			t.Fatalf("%s: util %v, want demand/capacity = %v", ctx, r.Util, want)
		}
		if r.Free() != r.CapacityCores-r.DemandCores {
			t.Fatalf("%s: Free() = %d, want %d", ctx, r.Free(), r.CapacityCores-r.DemandCores)
		}
	}
	for i, r := range f.Loads() {
		checkReport(fmt.Sprintf("pre-run shard %d", i), r)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.rounds) == 0 {
		t.Fatal("no round events recorded")
	}
	for _, e := range sink.rounds {
		checkReport(fmt.Sprintf("shard %d round %d", e.Shard, e.Outcome.Round), e.Load)
	}
}
