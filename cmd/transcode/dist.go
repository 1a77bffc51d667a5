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
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/tenancy"
)

// runMaster serves the routing/supervision node until the context is
// cancelled. Its operational journal (agent joins/deaths, re-imports,
// lost sessions) goes to -events as JSONL — the artifact the dist-smoke
// CI job asserts failover against.
func runMaster(ctx context.Context, o options, stdout io.Writer) error {
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
			fmt.Fprintf(stdout, format+"\n", args...)
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

// runAgent serves one fleet node until the context is cancelled, on the
// serving configuration the local fleet uses (servingOptions) with
// -shards shards; the telemetry sink and the per-agent-labeled metrics
// endpoint come from the same flags.
func runAgent(ctx context.Context, o options, stdout io.Writer) error {
	fleetOptions, closeMetrics, err := servingOptions(o, stdout)
	if err != nil {
		return err
	}
	defer closeMetrics()
	sink, _, closeSink, err := buildSink(o.sink, stdout)
	if err != nil {
		return err
	}
	defer closeSink()
	a, err := dist.NewAgent(dist.AgentConfig{
		Name:            o.name,
		Addr:            o.agentAddr,
		AdvertiseURL:    o.advertiseURL,
		MasterURL:       o.masterURL,
		HeartbeatEvery:  o.heartbeatEvery,
		CheckpointEvery: o.checkpointEvery,
		Sink:            sink,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	}, append(fleetOptions, serve.WithShards(o.shards))...)
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

// runSubmit drives -users sessions of the fleet's roster (userVideo) into
// a master's front door (the same endpoint shape works against a
// standalone agent, which answers without the routed agent name), each in
// its -tenant-plan tenant. Sources are sent by spec — regenerated on the
// serving node — so the submitting process streams no pixels.
func runSubmit(ctx context.Context, o options, stdout io.Writer) error {
	cfg := core.DefaultSessionConfig()
	var err error
	if cfg.Mode, err = parseMode(o.mode); err != nil {
		return err
	}
	plan, err := parseTenantPlan(o.tenantPlan, o.users)
	if err != nil {
		return err
	}
	client := dist.DefaultClient()
	for i := 0; i < o.users; i++ {
		src, err := dist.NewMedgenSource(userVideo(o, i), "")
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
			Tenant:   plan[i].tenant,
			Priority: plan[i].priority,
		}
		var resp dist.RoutedSubmitResponse
		if err := client.PostJSON(ctx, o.submitURL+"/v1/submit", req, &resp); err != nil {
			return fmt.Errorf("submit user %d: %w", i, err)
		}
		user := userLabel(i, src.Class(), plan[i])
		if resp.Agent != "" {
			fmt.Fprintf(stdout, "%s → agent %s shard %d session %d\n", user, resp.Agent, resp.Shard, resp.Session)
		} else {
			fmt.Fprintf(stdout, "%s → shard %d session %d\n", user, resp.Shard, resp.Session)
		}
	}
	return nil
}
