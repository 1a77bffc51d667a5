package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/tenancy"
)

// The multi-tenant QoS acceptance scenarios (ISSUE 10, DESIGN.md §9):
// mixed-tenant churn, the noisy neighbor (a flooding heavy tenant cannot
// starve a light one out of its weighted core share), and the flash
// crowd (an emergency-priority arrival is admitted in its arrival round
// by pushing best-effort sessions down the admission ladder, leaving an
// unrelated tenant's output bit-identical). The scenarios are tuned to a
// warmed 256×192 session costing exactly one core: the default work model
// prices one at about a tenth of a core, which the allocator rounds up to
// its one-core floor.

// tenantPlatform8 builds the single 8-core shard the QoS scenarios
// saturate.
func tenantPlatform8() Option { return WithPlatforms(heteroPlatform(8)) }

// tenantSessionConfig pins a one-core-when-warm session: the coarse grid
// keeps the cold 5 ms-per-tile prior small.
func tenantSessionConfig() core.SessionConfig {
	cfg := testSessionConfig()
	cfg.Retile.MinTileW, cfg.Retile.MinTileH = 84, 64
	return cfg
}

// TestMixedTenantChurn drives three tenants (one rate-limited) plus
// legacy default-tenant submissions through a two-shard fleet: every
// admitted session completes, placements carry the right tenant, the
// per-round tenant-cores observable never names an unknown tenant, and
// the over-rate tenant's third submission is refused at the front door
// with ErrRateLimited — before any shard is touched.
func TestMixedTenantChurn(t *testing.T) {
	reg := tenancy.NewRegistry(
		tenancy.Tenant{ID: "alpha", Weight: 2},
		tenancy.Tenant{ID: "beta", Weight: 1},
		tenancy.Tenant{ID: "burst", Weight: 1, Rate: 1e-9, Burst: 2},
	)
	sink := &recordingSink{}
	f, err := New(WithShards(2), WithSink(sink), WithTenancy(reg),
		WithAdmission(core.AdmissionConfig{Enabled: true}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{} // tenant → submitted sessions
	submit := func(tenant string, seed int64) {
		t.Helper()
		_, err := f.SubmitWith(SubmitRequest{
			Source: testSource(t, "churn-"+tenant, seed, 8),
			Config: tenantSessionConfig(),
			Tenant: tenant,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[tenant]++
	}
	for i := 0; i < 3; i++ {
		submit("alpha", int64(10+i))
		submit("beta", int64(20+i))
	}
	// The burst tenant's bucket holds exactly two tokens and refills at a
	// negligible rate: the third submission must bounce at the front door.
	submit("burst", 30)
	submit("burst", 31)
	if _, err := f.SubmitWith(SubmitRequest{
		Source: testSource(t, "churn-burst", 32, 8),
		Config: tenantSessionConfig(),
		Tenant: "burst",
	}); !errors.Is(err, tenancy.ErrRateLimited) {
		t.Fatalf("over-rate submission returned %v, want ErrRateLimited", err)
	}
	// The deprecated shim rides along as the default tenant.
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "churn-default", 40, 8), Config: tenantSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	want[""]++

	f.Close()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 9 || rep.Completed != 9 || rep.Rejected != 0 || rep.Failed != 0 {
		t.Fatalf("fleet report %+v, want all 9 admitted sessions completed", rep)
	}
	if rep.FramesEncoded != 9*8 || rep.GOPReports != 9*2 {
		t.Fatalf("frames/GOPs %d/%d, want 72/18", rep.FramesEncoded, rep.GOPReports)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	got := map[string]int{}
	for _, e := range sink.placements {
		got[e.Tenant]++
	}
	for tenant, n := range want {
		if got[tenant] != n {
			t.Fatalf("placements for tenant %q: %d, want %d (all: %v)", tenant, got[tenant], n, got)
		}
	}
	known := map[string]bool{"": true, "alpha": true, "beta": true, "burst": true}
	for _, e := range sink.rounds {
		for tenant := range e.Outcome.TenantCores {
			if !known[tenant] {
				t.Fatalf("round %d names unknown tenant %q in TenantCores", e.Outcome.Round, tenant)
			}
		}
	}
}

// TestNoisyNeighborWeightedFairness is the acceptance criterion for
// weighted fairness: tenants weighted 3:1 on a saturated 8-core shard.
// The heavy tenant floods eight sessions against its 6-core share while
// the light tenant's two one-core sessions exactly fill its 2-core
// share. Per round, allocated cores track the weights within one core;
// the light tenant completes everything at rung 0 (never refused, never
// preempted) while only heavy sessions ride the ladder.
func TestNoisyNeighborWeightedFairness(t *testing.T) {
	reg := tenancy.NewRegistry(
		tenancy.Tenant{ID: "heavy", Weight: 3},
		tenancy.Tenant{ID: "light", Weight: 1},
	)
	sink := &recordingSink{}
	var rounds atomic.Int64
	floodGate := make(chan struct{})
	f, err := New(tenantPlatform8(), WithSink(sink), WithTenancy(reg),
		WithAdmission(core.AdmissionConfig{Enabled: true}),
		WithRoundHook(func(shard int, out *core.GOPOutcome) {
			if rounds.Add(1) == 2 {
				close(floodGate)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}

	lightIDs := map[int]bool{}
	for i := 0; i < 2; i++ {
		p, err := f.SubmitWith(SubmitRequest{
			Source: testSource(t, "nn-light", int64(i+1), 32),
			Config: tenantSessionConfig(),
			Tenant: "light",
		})
		if err != nil {
			t.Fatal(err)
		}
		lightIDs[p.Session.ID] = true
	}

	repCh := make(chan *Report, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := f.Run(context.Background())
		repCh <- rep
		errCh <- err
	}()

	// Two settled rounds warm the light tenant's estimates to their
	// one-core floor; then the heavy tenant floods.
	<-floodGate
	for i := 0; i < 8; i++ {
		if _, err := f.SubmitWith(SubmitRequest{
			Source: testSource(t, "nn-heavy", int64(100+i), 16),
			Config: tenantSessionConfig(),
			Tenant: "heavy",
		}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	rep := <-repCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	if rep.Completed != 10 || rep.Rejected != 0 || rep.Failed != 0 {
		t.Fatalf("fleet report %+v, want all 10 completed despite the flood", rep)
	}
	if rep.FramesEncoded != 2*32+8*16 || rep.GOPReports != 2*8+8*4 {
		t.Fatalf("frames/GOPs %d/%d, want 192/48 (zero lost frames)", rep.FramesEncoded, rep.GOPReports)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	saturated := 0
	for _, e := range sink.rounds {
		out := e.Outcome
		heavyCores, hasHeavy := out.TenantCores["heavy"]
		lightCores, hasLight := out.TenantCores["light"]
		if hasHeavy && hasLight {
			// Both tenants competing: shares track the 3:1 weights (6 and
			// 2 of 8 cores) within one core. The heavy tenant can run
			// under its entitlement (tail rounds), never meaningfully over.
			if heavyCores > 7 {
				t.Fatalf("round %d: heavy tenant got %d cores, weight share is 6", out.Round, heavyCores)
			}
			if lightCores != 2 {
				t.Fatalf("round %d: light tenant got %d cores, want its full 2-core share", out.Round, lightCores)
			}
			if len(out.RejectedUsers) > 0 {
				saturated++
				if heavyCores < 5 {
					t.Fatalf("round %d: saturated but heavy tenant only got %d cores (share 6±1)", out.Round, heavyCores)
				}
			}
		}
		// The light tenant never touches the ladder.
		for _, lists := range [][]int{out.RejectedUsers, out.Preempted, out.TimedOut} {
			for _, id := range lists {
				if lightIDs[id] {
					t.Fatalf("round %d: light session %d on the ladder (rejected/preempted/timed out)", out.Round, id)
				}
			}
		}
	}
	if saturated == 0 {
		t.Fatal("the flood never saturated the platform: no contested round observed")
	}
}

// TestFlashCrowdPreemption is the acceptance criterion for priority
// preemption: a full 8-core platform serves six best-effort batch
// sessions and one light-tenant session; an emergency submission (its
// priority class resolved from the registry) arrives mid-run and must be
// admitted in its arrival round — never refused — with the room made by
// pushing batch sessions down the admission ladder. The light tenant
// never degrades, and its bitstream digests are identical to a control
// run without the emergency arrival. No frames are lost anywhere.
func TestFlashCrowdPreemption(t *testing.T) {
	run := func(withER bool) (*Report, *recordingSink, int, int) {
		reg := tenancy.NewRegistry(
			tenancy.Tenant{ID: "batch", Weight: 3},
			tenancy.Tenant{ID: "light", Weight: 1},
			tenancy.Tenant{ID: "er", Weight: 3, Priority: 9},
		)
		sink := &recordingSink{}
		var f *Fleet
		var rounds atomic.Int64
		arrive := make(chan struct{})
		submitBatch := func(i int, frames int) error {
			_, err := f.SubmitWith(SubmitRequest{
				Source: testSource(t, "fc-batch", int64(10+i), frames),
				Config: tenantSessionConfig(),
				Tenant: "batch",
			})
			return err
		}
		// Batch sessions arrive one per round: each warms to its exact
		// one-core demand before the next one's two-core cold prior lands,
		// so the fleet fills to a zero-refusal exact fit — every batch
		// session still holds its full ladder when the emergency arrives
		// (a cold refusal would have burned it down already).
		f, err := New(tenantPlatform8(), WithSink(sink), WithTenancy(reg),
			WithAdmission(core.AdmissionConfig{Enabled: true}),
			WithRoundHook(func(shard int, out *core.GOPOutcome) {
				r := rounds.Add(1)
				if r <= 5 {
					if err := submitBatch(int(r), 48); err != nil {
						t.Errorf("staggered batch submit %d: %v", r, err)
					}
				}
				if r == 7 {
					close(arrive)
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		if err := submitBatch(0, 48); err != nil {
			t.Fatal(err)
		}
		light, err := f.SubmitWith(SubmitRequest{
			Source: testSource(t, "fc-light", 3, 40),
			Config: tenantSessionConfig(),
			Tenant: "light",
		})
		if err != nil {
			t.Fatal(err)
		}

		repCh := make(chan *Report, 1)
		errCh := make(chan error, 1)
		go func() {
			rep, err := f.Run(context.Background())
			repCh <- rep
			errCh <- err
		}()
		<-arrive
		erID := -1
		if withER {
			// The emergency session's class is cold on arrival: its finer
			// grid prices the 5 ms-per-tile prior at two cores, carving a
			// real bite out of the saturated platform. Priority 0 resolves
			// to the registry's class 9.
			cfg := tenantSessionConfig()
			cfg.Retile.MinTileW, cfg.Retile.MinTileH = 48, 48
			p, err := f.SubmitWith(SubmitRequest{
				Source: testSource(t, "fc-er", 77, 8),
				Config: cfg,
				Tenant: "er",
			})
			if err != nil {
				t.Fatal(err)
			}
			erID = p.Session.ID
		}
		f.Close()
		rep := <-repCh
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		return rep, sink, light.Session.ID, erID
	}

	rep, sink, lightID, erID := run(true)
	ctrlRep, ctrlSink, ctrlLightID, _ := run(false)

	if rep.Completed != 8 || rep.Rejected != 0 || rep.Failed != 0 {
		t.Fatalf("fleet report %+v, want all 8 completed", rep)
	}
	if rep.FramesEncoded != 6*48+40+8 || rep.GOPReports != 6*12+10+2 {
		t.Fatalf("frames/GOPs %d/%d, want 336/84 (zero lost frames)", rep.FramesEncoded, rep.GOPReports)
	}
	if ctrlRep.Completed != 7 || ctrlRep.Rejected != 0 || ctrlRep.Failed != 0 {
		t.Fatalf("control report %+v, want all 7 completed", ctrlRep)
	}

	sink.mu.Lock()
	// The emergency session was never refused, and its arrival round —
	// the first round it competed in — both admitted it and pushed batch
	// sessions down the ladder.
	arrivalSeen := false
	for _, e := range sink.rounds {
		out := e.Outcome
		for _, id := range out.RejectedUsers {
			if id == erID {
				t.Fatalf("round %d: emergency session %d was refused", out.Round, erID)
			}
		}
		admitted := false
		for _, id := range out.AdmittedUsers {
			if id == erID {
				admitted = true
			}
		}
		if admitted && !arrivalSeen {
			arrivalSeen = true
			if len(out.Preempted) == 0 {
				t.Fatalf("round %d admitted the emergency session without preempting anyone", out.Round)
			}
			for _, id := range out.Preempted {
				if id == lightID || id == erID {
					t.Fatalf("round %d preempted session %d, want only batch sessions pushed down", out.Round, id)
				}
			}
		}
	}
	if !arrivalSeen {
		t.Fatal("the emergency session was never admitted")
	}
	// The registry's priority class rode the placement event.
	for _, e := range sink.placements {
		if e.Tenant == "er" && e.Priority != 9 {
			t.Fatalf("emergency placement priority %d, want the registry default 9", e.Priority)
		}
	}
	// The light tenant never touched the ladder in either run.
	for _, e := range sink.rounds {
		for _, id := range append(append([]int{}, e.Outcome.RejectedUsers...), e.Outcome.Preempted...) {
			if id == lightID {
				t.Fatalf("round %d: light session on the ladder", e.Outcome.Round)
			}
		}
	}
	sink.mu.Unlock()

	// Bit-identical: the light tenant's output is unaffected by the
	// emergency arrival and the preemption it caused.
	gotDigests, gotFrames := stitchDigests(sink, 0, lightID)
	wantDigests, wantFrames := stitchDigests(ctrlSink, 0, ctrlLightID)
	if gotFrames != 40 || wantFrames != 40 {
		t.Fatalf("light tenant frames %d/%d, want 40 in both runs", gotFrames, wantFrames)
	}
	if len(gotDigests) != len(wantDigests) || len(gotDigests) != 10 {
		t.Fatalf("light digest chains %d/%d GOPs, want 10", len(gotDigests), len(wantDigests))
	}
	for i := range gotDigests {
		if gotDigests[i] != wantDigests[i] {
			t.Fatalf("light tenant GOP %d digest diverged under preemption", i)
		}
	}
}
