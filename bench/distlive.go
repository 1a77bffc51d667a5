package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/serve"
)

// dist_live parameters. FROZEN with the benchmark.
const (
	distAgents = 2
	// Each agent is driven by one client connection that keeps distSlots
	// sessions in flight on it — closed loop, a slot's next session is
	// submitted when its previous one leaves. The second slot's first and
	// last sessions are half length, so the two slots never turn over in
	// the same round and every round of an agent serves exactly two
	// sessions: round time has one mode, not three.
	distSlots        = 2
	distSlotSessions = 4 // full-length sessions each slot is worth
	distSessions     = distAgents * (2*distSlotSessions + 1)
	// distFramesPerSec sizes the run: frames per full-length session per
	// second of nominal measured window.
	distFramesPerSec = 27.0
)

var distAgentNames = [distAgents]string{"agent-a", "agent-b"}

// clipSpec is what a clipSource ships over the wire in place of pixels:
// which roster clip, entered where, for how long. The production medgen
// source ships its generator configuration the same way.
type clipSpec struct {
	Clip   int `json:"clip"`
	Start  int `json:"start"`
	Frames int `json:"frames"`
}

const sourceKindClip = "bench.clip"

// Spec makes clipSource a core.SpeccedSource, so a dist agent can
// checkpoint its sessions every round.
func (s *clipSource) Spec() (core.SourceSpec, error) {
	data, err := json.Marshal(clipSpec{Clip: s.clip.index, Start: s.start, Frames: s.length})
	if err != nil {
		return core.SourceSpec{}, err
	}
	return core.SourceSpec{Kind: sourceKindClip, Class: s.class, Data: data}, nil
}

var _ core.SpeccedSource = (*clipSource)(nil)

// httpProbe is the benchmark's probe at the wire: an http.RoundTripper
// installed as http.DefaultTransport (which every dist.Client uses) for the
// length of a dist_live pass. It counts requests and bytes per path and
// keeps the body of one mid-stream heartbeat for the wire probes.
type httpProbe struct {
	base    http.RoundTripper
	gated   func() bool
	capture bool // keep a heartbeat body (traced pass only: it costs a copy)

	mu             sync.Mutex
	heartbeats     int
	heartbeatBytes int64
	retryable      int // transport errors, 5xx and 429: what dist.Client retries
	sample         []byte
}

func (h *httpProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	isHeartbeat := strings.HasSuffix(req.URL.Path, "/v1/heartbeat")
	open := h.gated()
	// Keep the largest heartbeat seen: the one carrying the most session
	// checkpoints.
	if isHeartbeat && open && h.capture && req.GetBody != nil {
		h.mu.Lock()
		bigger := req.ContentLength > int64(len(h.sample))
		h.mu.Unlock()
		if bigger {
			if rc, err := req.GetBody(); err == nil {
				body, _ := io.ReadAll(rc)
				rc.Close()
				h.mu.Lock()
				h.sample = body
				h.mu.Unlock()
			}
		}
	}
	resp, err := h.base.RoundTrip(req)
	if !open {
		return resp, err
	}
	h.mu.Lock()
	if isHeartbeat {
		h.heartbeats++
		h.heartbeatBytes += req.ContentLength
	}
	if err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		h.retryable++
	}
	h.mu.Unlock()
	return resp, err
}

// terminalSink tells the closed loop that a session left the system.
type terminalSink struct {
	serve.NopSink
	done      chan<- core.SessionState
	completed atomic.Int64
}

func (t *terminalSink) OnSessionStateChange(e serve.SessionEvent) {
	if e.State == core.StateQueued || e.State == core.StateMigrated {
		return
	}
	if e.State == core.StateCompleted {
		t.completed.Add(1)
	}
	t.done <- e.State
}

// distSession is one planned submission: which roster clip, entered
// where, how long.
type distSession struct {
	class  int
	start  int
	frames int
}

// distPlan is the queue of one agent's client: the first distSlots entries
// fill the slots, each later one is submitted when a session leaves. Two
// lanes of distSlotSessions full-length sessions, the second shifted by half
// a session: full, half, then full sessions, then a closing half. The two
// classes the agent homes alternate so that each plays exactly half of the
// agent's frames; the seed picks where in its clip's cycle each session
// starts. (It once also picked which class opens: two agents times two
// orders made four different workloads, and frames_per_s came in two
// clusters 6% apart.)
func distPlan(seed int64, agent, frames, period int) []distSession {
	r := newRNG(seed, 0xd157+uint64(agent))
	var homed []int
	for c := range clipClasses {
		if c%distAgents == agent {
			homed = append(homed, c)
		}
	}
	plan := []distSession{{homed[0], 0, frames}, {homed[1], 0, frames / 2}}
	for i := 0; i < 2*(distSlotSessions-1); i++ {
		plan = append(plan, distSession{homed[(i+1)%2], 0, frames})
	}
	plan = append(plan, distSession{homed[1], 0, frames / 2})
	for i := range plan {
		plan[i].start = r.intn(period)
	}
	return plan
}

// runDist serves distSessions sessions through an in-process master and two
// agents over real HTTP on 127.0.0.1: routed submit, per-round session
// checkpoints, heartbeats. Closed loop, distSlots sessions in flight per
// agent.
func runDist(p *pass) (err error) {
	probe := &httpProbe{base: http.DefaultTransport, gated: p.rec.windowOpen, capture: p.tr != nil}
	http.DefaultTransport = probe
	defer func() {
		http.DefaultTransport = probe.base
		if t, ok := probe.base.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}()

	var lost, dead atomic.Int64
	master, err := dist.NewMaster(dist.MasterConfig{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 30 * time.Second, // a busy two-core box must never lose an agent
		OnEvent: func(e dist.Event) {
			switch e.Event {
			case "session_lost":
				lost.Add(1)
			case "agent_dead":
				dead.Add(1)
			}
		},
	})
	if err != nil {
		return err
	}
	bg, stop := context.WithCancel(context.Background())
	defer stop()
	if err := master.Start(bg); err != nil {
		return err
	}
	defer master.Close()

	// Class labels are chosen so the master's ring (keyed by agent name)
	// homes roster class c on agent c mod 2.
	ring := serve.NewRing(distAgentNames[:], serve.RingReplicas)
	labels := make([]string, len(clipClasses))
	for c := range labels {
		labels[c] = homedLabel(clipClasses[c].String(), func(l string) bool { return ring.MemberFor(l) == distAgentNames[c%distAgents] })
	}

	agents := make([]*dist.Agent, distAgents)
	done := make([]chan core.SessionState, distAgents)
	terminals := make([]*terminalSink, distAgents)
	for i := range agents {
		unit := i
		reg, err := p.alloc.registry()
		if err != nil {
			return err
		}
		// The agent re-opens a submitted spec as the pre-rendered clip it
		// names: frames never come from the generator inside a timed region.
		binder := func(spec core.SourceSpec) (core.FrameSource, error) {
			var cs clipSpec
			if err := json.Unmarshal(spec.Data, &cs); err != nil {
				return nil, err
			}
			if spec.Kind != sourceKindClip || cs.Clip < 0 || cs.Clip >= len(p.clips) {
				return nil, fmt.Errorf("no pre-rendered clip for %s spec %s", spec.Kind, spec.Data)
			}
			src := p.source(p.clips[cs.Clip], cs.Start, cs.Frames, spec.Class)
			src.place(unit, -1)
			return src, nil
		}
		done[i] = make(chan core.SessionState, distSessions)
		terminals[i] = &terminalSink{done: done[i]}
		agents[i], err = dist.NewAgent(dist.AgentConfig{
			Name:            distAgentNames[i],
			Addr:            "127.0.0.1:0",
			MasterURL:       master.URL(),
			HeartbeatEvery:  100 * time.Millisecond,
			CheckpointEvery: 1,
			Binder:          binder,
			Sink:            p.probe("serve.sink.agent", terminals[i], unit, true),
		},
			serve.WithPlatforms(mpsoc.XeonE5_2667V4()),
			serve.WithFPS(frameFPS),
			serve.WithRegistry(reg),
			serve.WithAllocator(sched.NameContentAware),
			serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
			serve.WithRoundHook(func(shard int, out *core.GOPOutcome) { p.rec.onRound(unit+shard, out, nil) }),
		)
		if err != nil {
			return err
		}
	}
	p.alloc.unitOf = func(sched.Input) int { return -1 }

	client := dist.DefaultClient()
	cfg := sessionConfig(core.ModeProposed, false)
	frames := p.size.frames

	err = p.serve(func(ctx context.Context) error {
		actx, acancel := context.WithCancel(ctx)
		defer acancel()
		for _, a := range agents {
			if err := a.Start(actx); err != nil {
				return err
			}
		}
		// Wait until the master has heard from both agents.
		deadline := time.Now().Add(20 * time.Second)
		for {
			var stats dist.StatsResponse
			if err := client.GetJSON(ctx, master.URL()+"/v1/stats", &stats); err == nil && stats.Live == distAgents {
				break
			}
			if time.Now().After(deadline) {
				return errors.New("agents did not register with the master")
			}
			time.Sleep(5 * time.Millisecond)
		}

		// The closed loop: one client per agent. It fills both slots, then
		// refills whichever slot a terminal event frees. A slot is known by
		// the session id the agent gave its current occupant.
		var wg sync.WaitGroup
		errs := make([]error, distAgents)
		for a := range agents {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				errs[a] = p.driveAgent(ctx, client, master.URL(), a, distPlan(p.seed, a, frames, p.clips[0].period()), labels, cfg, done[a])
			}(a)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	for _, a := range agents {
		a.Close()
	}

	completed := 0
	for i, t := range terminals {
		n := int(t.completed.Load())
		completed += n
		if u := &p.rec.units[i]; u.framesAll*4 < p.rec.offered {
			return fmt.Errorf("agent %s served %d of %d frames: less than a quarter", distAgentNames[i], u.framesAll, p.rec.offered)
		}
	}
	if completed != distSessions || lost.Load() != 0 || dead.Load() != 0 {
		return fmt.Errorf("dist_live: %d of %d sessions completed, %d lost, %d agents declared dead",
			completed, distSessions, lost.Load(), dead.Load())
	}
	p.ext.http = probe
	for _, a := range agents {
		p.ext.fleets = append(p.ext.fleets, a.Fleet())
	}
	return nil
}

// driveAgent is one client's closed loop against one agent: submit through
// the master, wait for a terminal event from the agent, submit the next.
func (p *pass) driveAgent(ctx context.Context, client *dist.Client, masterURL string, agent int,
	plan []distSession, labels []string, cfg core.SessionConfig, done <-chan core.SessionState) error {
	submitted := 0
	submit := func(s distSession) error {
		src := p.source(p.clips[s.class], s.start, s.frames, labels[s.class])
		spec, err := src.Spec()
		if err != nil {
			return err
		}
		req := dist.SubmitRequest{Version: dist.ProtocolVersion, Source: spec, Config: cfg}
		// The sessions that open the agent's two slots keep their
		// bitstreams for the correctness gate to decode.
		req.Config.KeepBitstreams = submitted < distSlots
		submitted++
		var resp dist.RoutedSubmitResponse
		t0 := time.Now()
		err = client.PostJSON(ctx, masterURL+"/v1/submit", req, &resp)
		t1 := time.Now()
		if err != nil {
			p.rec.refused(s.frames)
			return fmt.Errorf("dist submit: %w", err)
		}
		if resp.Agent != distAgentNames[agent] {
			return fmt.Errorf("class %s routed to %s, planned for %s", labels[s.class], resp.Agent, distAgentNames[agent])
		}
		src.place(agent+resp.Shard, resp.Session)
		p.rec.submitted(sessKey{agent + resp.Shard, resp.Session}, s.frames, t1, t1.Sub(t0))
		p.tr.record("dist.submit", agent+resp.Shard, resp.Session, t0, t1)
		return nil
	}
	inFlight := 0
	for len(plan) > 0 || inFlight > 0 {
		for len(plan) > 0 && inFlight < distSlots {
			if err := submit(plan[0]); err != nil {
				return err
			}
			plan = plan[1:]
			inFlight++
		}
		select {
		case state := <-done:
			if state != core.StateCompleted {
				return fmt.Errorf("a session on %s ended %v", distAgentNames[agent], state)
			}
			inFlight--
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Minute):
			return fmt.Errorf("dist_live stalled on %s with %d sessions in flight", distAgentNames[agent], inFlight)
		}
	}
	return nil
}
