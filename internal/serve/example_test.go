package serve_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/serve"
)

// The bodies of these examples are the Go blocks of README.md, verbatim
// but for indentation; internal/surface fails when the two differ. Their
// output names only what pricing cannot change: sessions, frames, shards
// and cores.

func ExampleNew() {
	// A synthetic 320×240 MRI study stands in for a camera feed.
	study := medgen.Default()
	study.Width, study.Height, study.Frames = 320, 240, 8
	src, err := medgen.NewGenerator(study) // a core.FrameSource
	if err != nil {
		log.Fatal(err)
	}

	// The LUT store keeps the learned estimation tables across restarts.
	dir, err := os.MkdirTemp("", "luts")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ring := serve.NewRingSink(256) // bounded telemetry: exact counters, last 256 rounds
	fleet, err := serve.New(
		serve.WithShards(3),                         // 3 platforms
		serve.WithAllocator(sched.NameContentAware), // Algorithm 2, by name
		serve.WithAdmission(core.AdmissionConfig{Enabled: true}),
		serve.WithSink(ring),                                // streaming telemetry
		serve.WithLUTStore(filepath.Join(dir, "luts.json")), // warm restarts
	)
	if err != nil {
		log.Fatal(err)
	}

	// Sessions are routed by workload class (consistent hashing keeps each
	// shard's estimation LUTs warm), with lowest-utilization fallback.
	placement, err := fleet.SubmitWith(serve.SubmitRequest{
		Source: src, Config: core.DefaultSessionConfig(), // + Tenant, Priority
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("session", placement.Session.ID, "on shard", placement.Shard)

	fleet.Close()                                  // seal arrivals; Run drains
	report, err := fleet.Run(context.Background()) // supervises all shard loops
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Completed, "of", report.Submitted, "sessions completed,", report.FramesEncoded, "frames encoded")
	fmt.Println(ring.Report().FramesEncoded, "frames in the event stream")
	// Output:
	// session 0 on shard 1
	// 1 of 1 sessions completed, 8 frames encoded
	// 8 frames in the event stream
}

func ExampleWithAutoscale() {
	fleet, err := serve.New(
		serve.WithShards(2),
		serve.WithAutoscale(serve.AutoscaleConfig{
			MinShards: 2, MaxShards: 4, // bounds
			TargetUtil: 0.75, // demand/capacity to steer toward
		}),
		serve.WithRebalance(serve.RebalanceConfig{
			Factor: 1.5, // hot = utilization > 1.5 × fleet mean for 2 rounds
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(fleet.Loads()), "shards to start")
	// Output: 2 shards to start
}

func ExampleWithDemandPlacement() {
	small, big := mpsoc.XeonE5_2667V4(), mpsoc.XeonE5_2667V4()
	small.Cores, big.Cores = 8, 32
	fleet, err := serve.New(
		serve.WithPlatforms(small, big), // heterogeneous shards
		serve.WithDemandPlacement(serve.PlacementConfig{PixelsPerCore: 2e6}),
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, load := range fleet.Loads() {
		fmt.Println(load.CapacityCores, "cores")
	}
	// Output:
	// 8 cores
	// 32 cores
}
