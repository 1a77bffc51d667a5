// Telemedicine: the paper's motivating scenario — a hospital group
// transcoding many diagnostic videos online for doctors on mobile
// devices. Unlike a batch job, the service is long-lived: consultations
// start and end at arbitrary times. This example drives the fleet
// serving API (serve.New): two small MPSoC shards sit behind one front
// door, arrivals are routed by body-part class so each shard's workload
// LUTs stay warm, the admission ladder degrades newcomers when a shard
// saturates (uniform tiling → higher QP → half frame rate → bounded
// queue), and a ring-buffer sink keeps the service observable without
// growing with every GOP. When the morning rush piles up, the fleet's
// built-in autoscaler (serve.WithAutoscale) grows the fleet — and
// shrinks it again as the clinic empties, migrating any still-running
// consultation to a surviving shard at a GOP boundary, without losing a
// frame — while the rebalancer (serve.WithRebalance) sheds a shard that
// one popular body part made hot onto its idle peer. A metrics sink
// (serve.WithMetrics) exports the whole run — energy joules, deadline
// misses, per-body-part dollars and QoE — as a Prometheus /metrics
// endpoint, the same one a hospital's monitoring stack would scrape.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/metrics"
	"repro/internal/mpsoc"
	"repro/internal/serve"
)

func main() {
	const (
		arrivals = 12 // sessions over the whole service
		upfront  = 4  // already waiting when the service starts
		shards   = 2  // platforms behind the front door
	)

	// Deliberately small platforms so arrivals overlap and the admission
	// ladder has work to do.
	mkPlatform := func() *mpsoc.Platform {
		p := mpsoc.XeonE5_2667V4()
		p.Cores = 4
		return p
	}

	classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
	submitted := 0
	var fleet *serve.Fleet
	submit := func() error {
		vc := medgen.Default()
		vc.Width, vc.Height = 320, 240 // keep the example quick
		vc.Frames = 16
		vc.Class = classes[submitted%len(classes)]
		vc.Seed = int64(submitted + 1)
		gen, err := medgen.NewGenerator(vc)
		if err != nil {
			return err
		}
		src, err := core.SourceFromGenerator(gen, vc.Frames, vc.FPS, vc.Class.String())
		if err != nil {
			return err
		}
		cfg := core.DefaultSessionConfig()
		cfg.Retile.MinTileW, cfg.Retile.MinTileH = 48, 48
		p, err := fleet.SubmitWith(serve.SubmitRequest{Source: src, Config: cfg})
		if err != nil {
			return err
		}
		submitted++
		fmt.Printf("   → %s consultation joined shard %d as user %d (class home: shard %d)\n",
			vc.Class, p.Shard, p.Session.ID, fleet.HomeShard(vc.Class.String()))
		return nil
	}

	ring := serve.NewRingSink(64)

	// The hospital's billing and monitoring view: every fleet event also
	// lands in a bounded-cardinality metrics registry, priced by a cost
	// model and served in Prometheus text format.
	msink := metrics.NewSink(metrics.SinkConfig{
		Cost: metrics.CostModel{
			DollarsPerJoule:        0.0002, // electricity + cooling
			DollarsPerDeadlineMiss: 0.01,   // SLO service credit
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", msink.Handler())
	msrv := &http.Server{Handler: mux}
	go msrv.Serve(ln)
	defer msrv.Close()
	metricsURL := fmt.Sprintf("http://%s/metrics", ln.Addr())
	fmt.Printf("monitoring: %s\n", metricsURL)

	fleet, err = serve.New(
		serve.WithPlatforms(mkPlatform(), mkPlatform()),
		serve.WithShardCapacity(4),
		serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
		serve.WithAdmission(core.AdmissionConfig{Enabled: true, MaxQueueRounds: 16, RecoverAfterRounds: 3}),
		serve.WithSink(ring),
		serve.WithMetrics(msink),
		// The fleet scales itself: when the consultations' summed core
		// demand pushes the fleet past TargetUtil of its capacity for two
		// consecutive rounds, a third shard opens; once the demand
		// would again fit within TargetUtil on two shards, the extra shard
		// drains — live consultations migrate at a GOP boundary.
		serve.WithAutoscale(serve.AutoscaleConfig{
			MinShards:  2,
			MaxShards:  3,
			TargetUtil: 0.75,
			OnResize: func(from, to int, reason string) {
				if to > from {
					fmt.Printf("   ⇡ opening shard %d → %d (%s)\n", from, to, reason)
				} else {
					fmt.Printf("   ⇣ consolidating %d → %d (%s)\n", from, to, reason)
				}
			},
			OnError: func(err error) { log.Fatal(err) },
		}),
		// And a shard one popular body part made hot sheds consultations
		// to its idle peers without changing the fleet's size.
		serve.WithRebalance(serve.RebalanceConfig{Factor: 1.5}),
		serve.WithRoundHook(func(shard int, out *core.GOPOutcome) {
			fmt.Printf("shard %d round %2d: served %d users on %d cores, %.1f W",
				shard, out.Round, len(out.AdmittedUsers), out.Allocation.CoresUsed, out.Energy.AvgPowerW)
			if len(out.RejectedUsers) > 0 {
				fmt.Printf(", waiting %v", out.RejectedUsers)
			}
			if out.EstimateTiles > 0 {
				fmt.Printf(", estimate error %.1f%%", 100*out.EstimateErr)
			}
			fmt.Println()
			// Session churn: one more consultation begins per served round
			// until the day's queue is drained, then the clinic closes.
			if submitted < arrivals {
				if err := submit(); err != nil {
					log.Fatal(err)
				}
			}
			if submitted == arrivals {
				fleet.Close()
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < upfront; i++ {
		if err := submit(); err != nil {
			log.Fatal(err)
		}
	}
	if upfront == arrivals {
		fleet.Close()
	}

	start := time.Now()
	rep, err := fleet.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("\nclinic closed after %d rounds on %d shards (%v wall): %d/%d completed, %d rejected, %d failed\n",
		rep.Rounds, len(rep.Shards), wall.Round(time.Millisecond), rep.Completed, rep.Submitted, rep.Rejected, rep.Failed)
	fmt.Printf("%d frames served, %.1f J simulated (avg %.1f W, peak %.1f W), %d deadline misses\n",
		rep.FramesEncoded, rep.Energy.EnergyJ, rep.Energy.AvgPowerW(), rep.Energy.PeakPowerW, rep.Energy.DeadlineMisses)
	if e, tiles := core.MeanEstimateErr(ring.Outcomes(), 0); tiles > 0 {
		fmt.Printf("mean stage-D1 estimate error %.1f%% over %d tiles (ring sink)\n", 100*e, tiles)
	}
	if added, removed := ring.Resizes(); added+removed > 0 {
		fmt.Printf("elasticity: %d shard(s) opened, %d drained, %d consultation(s) migrated mid-stream\n",
			added, removed, ring.Migrations())
	}
	if n := ring.Rebalances(); n > 0 {
		fmt.Printf("rebalancing: %d consultation(s) shed off a hot shard\n", n)
	}
	for _, sr := range rep.Shards {
		fmt.Printf("shard %d: %d rounds, completed %v, migrated away %v\n",
			sr.Shard, sr.Report.Rounds, sr.Report.Completed, sr.Report.Migrated)
	}

	// What the monitoring stack sees: scrape our own /metrics endpoint and
	// show the billing and experience series for the finished day.
	resp, err := http.Get(metricsURL)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Printf("\nfinal scrape of %s (cost and QoE series):\n", metricsURL)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "repro_cost_dollars_total") ||
			strings.HasPrefix(line, "repro_class_cost_dollars_total") ||
			strings.HasPrefix(line, "repro_qoe_score") {
			fmt.Printf("   %s\n", line)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
