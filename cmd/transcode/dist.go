package main

// The distributed front door: -master runs the routing/supervision node,
// -agent runs one fleet node that registers with it, and -submit drives
// sessions into a master (or directly into an agent) over the versioned
// HTTP/JSON protocol in internal/dist. All policy lives in internal/dist;
// this file only maps flags onto configs.
//
// A minimal localhost fleet:
//
//	transcode -master 127.0.0.1:7600 -events /tmp/master.jsonl &
//	transcode -agent 127.0.0.1:7601 -name a -master-url http://127.0.0.1:7600 &
//	transcode -agent 127.0.0.1:7602 -name b -master-url http://127.0.0.1:7600 &
//	transcode -submit http://127.0.0.1:7600 -users 8 -frames 32

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/medgen"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tenancy"
)

// runMaster serves the routing/supervision node until the context is
// cancelled. Its operational journal (agent joins/deaths, re-imports,
// lost sessions) goes to -events as JSONL — the artifact the dist-smoke
// CI job asserts failover against.
func runMaster(ctx context.Context, o options) error {
	var events *json.Encoder
	if o.eventsPath != "" {
		f, err := os.Create(o.eventsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		events = json.NewEncoder(f)
	}
	// The master enforces the fleet-wide per-tenant admission rate at the
	// routing front door (agents run rate-stripped registries, so a routed
	// submission is charged exactly once).
	var reg *tenancy.Registry
	if o.tenantsConfig != "" {
		var err error
		if reg, err = tenancy.LoadFile(o.tenantsConfig); err != nil {
			return err
		}
	}
	m, err := dist.NewMaster(dist.MasterConfig{
		Addr:             o.masterAddr,
		Tenancy:          reg,
		HeartbeatTimeout: o.heartbeatGrace,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
		OnEvent: func(e dist.Event) {
			if events != nil {
				_ = events.Encode(e) // serialized by the master's event lock
			}
		},
	})
	if err != nil {
		return err
	}
	if err := m.Start(ctx); err != nil {
		return err
	}
	defer m.Close()
	<-ctx.Done()
	return nil
}

// runAgent serves one fleet node until the context is cancelled. The
// fleet options mirror the local -users mode where they make sense for
// a long-running node; the telemetry sink and the per-agent-labeled
// metrics endpoint come from the same flags.
func runAgent(ctx context.Context, o options) error {
	sink, _, closeSink, err := buildSink(o.sink)
	if err != nil {
		return err
	}
	fleetOptions := []serve.Option{
		serve.WithShards(o.shards),
		serve.WithAllocator(o.allocator),
		serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
		serve.WithAdmission(core.AdmissionConfig{Enabled: true, RecoverAfterRounds: 3}),
	}
	if o.tenantsConfig != "" {
		reg, err := tenancy.LoadFile(o.tenantsConfig)
		if err != nil {
			return err
		}
		// Weights and priority classes only: the master already charged
		// the fleet-wide token bucket before routing here.
		fleetOptions = append(fleetOptions, serve.WithTenancy(reg.WithoutRates()))
	}
	if o.metricsAddr != "" {
		msink := metrics.NewSink(metrics.SinkConfig{Agent: o.name})
		srv, err := serveMetrics(o.metricsAddr, msink)
		if err != nil {
			return err
		}
		defer srv.Close()
		fleetOptions = append(fleetOptions, serve.WithMetrics(msink))
	}
	a, err := dist.NewAgent(dist.AgentConfig{
		Name:            o.name,
		Addr:            o.agentAddr,
		AdvertiseURL:    o.advertiseURL,
		MasterURL:       o.masterURL,
		HeartbeatEvery:  o.heartbeatEvery,
		CheckpointEvery: o.checkpointEvery,
		Sink:            sink,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}, fleetOptions...)
	if err != nil {
		return err
	}
	if err := a.Start(ctx); err != nil {
		return err
	}
	err = a.Wait()
	if cerr := closeSink(); err == nil {
		err = cerr
	}
	return err
}

// serveMetrics starts a /metrics scrape endpoint for an agent's sink.
func serveMetrics(addr string, msink *metrics.Sink) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", msink.Handler())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "transcode: metrics server: %v\n", err)
		}
	}()
	fmt.Printf("metrics: serving http://%s/metrics\n", ln.Addr())
	return srv, nil
}

// runSubmit drives -users sessions into a master's front door (the same
// endpoint shape works against a standalone agent, which answers without
// the routed agent name). Sources are sent by spec — regenerated on the
// serving node — so the submitting process streams no pixels.
func runSubmit(ctx context.Context, o options) error {
	cfg := core.DefaultSessionConfig()
	var err error
	if cfg.Mode, err = parseMode(o.mode); err != nil {
		return err
	}
	client := dist.DefaultClient()
	classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
	for i := 0; i < o.users; i++ {
		vc := medgen.Default()
		vc.Width, vc.Height = o.width, o.height
		vc.Frames = o.frames
		vc.Class = classes[i%len(classes)]
		vc.Motion = motions[i%len(motions)]
		vc.Seed = o.seed + int64(i)
		src, err := dist.NewMedgenSource(vc, "")
		if err != nil {
			return err
		}
		spec, err := src.Spec()
		if err != nil {
			return err
		}
		req := dist.SubmitRequest{
			Version:  dist.ProtocolVersion,
			Source:   spec,
			Config:   cfg,
			Tenant:   o.tenant,
			Priority: o.priority,
		}
		var resp dist.RoutedSubmitResponse
		if err := client.PostJSON(ctx, o.submitURL+"/v1/submit", req, &resp); err != nil {
			return fmt.Errorf("submit user %d: %w", i, err)
		}
		if resp.Agent != "" {
			fmt.Printf("user %2d (%s) → agent %s shard %d session %d\n",
				i, vc.Class, resp.Agent, resp.Shard, resp.Session)
		} else {
			fmt.Printf("user %2d (%s) → shard %d session %d\n", i, vc.Class, resp.Shard, resp.Session)
		}
	}
	return nil
}
