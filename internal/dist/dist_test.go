package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/serve"
)

// recorder captures a fleet's telemetry for post-hoc digest stitching.
type recorder struct {
	serve.NopSink
	mu         sync.Mutex
	gops       []serve.GOPEvent
	placements []serve.PlacementEvent
	migrations []serve.MigrationEvent
}

func (r *recorder) OnGOP(e serve.GOPEvent) {
	r.mu.Lock()
	r.gops = append(r.gops, e)
	r.mu.Unlock()
}

func (r *recorder) OnSessionPlaced(e serve.PlacementEvent) {
	r.mu.Lock()
	r.placements = append(r.placements, e)
	r.mu.Unlock()
}

func (r *recorder) OnSessionMigrated(e serve.MigrationEvent) {
	r.mu.Lock()
	r.migrations = append(r.migrations, e)
	r.mu.Unlock()
}

// crossImports counts migrations with the cross-process marker
// (FromShard -1).
func (r *recorder) crossImports() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.migrations {
		if m.FromShard == -1 {
			n++
		}
	}
	return n
}

// digestsByClass maps class → GOP index → every digest the fleet
// recorded for it. Session→class comes from placements (submissions)
// and migrations (imports).
func (r *recorder) digestsByClass(into map[string]map[int][]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	classOf := make(map[[2]int]string)
	for _, p := range r.placements {
		classOf[[2]int{p.Shard, p.Session}] = p.Class
	}
	for _, m := range r.migrations {
		classOf[[2]int{m.ToShard, m.ToSession}] = m.Class
	}
	for _, g := range r.gops {
		class := classOf[[2]int{g.Shard, g.Session}]
		if into[class] == nil {
			into[class] = make(map[int][]uint64)
		}
		into[class][g.GOP.Index] = append(into[class][g.GOP.Index], g.GOP.Digest)
	}
}

func testMedgenConfig(class medgen.Class, motion medgen.MotionKind, frames int) medgen.Config {
	mc := medgen.Default()
	mc.Width, mc.Height = 256, 192
	mc.Class = class
	mc.Motion = motion
	mc.Frames = frames
	mc.Seed = int64(class)*100 + int64(motion) + 1
	return mc
}

func testSessionConfig() core.SessionConfig {
	cfg := core.DefaultSessionConfig()
	cfg.Codec.GOPSize = 4
	cfg.Codec.IntraPeriod = 8
	cfg.Retile.MinTileW, cfg.Retile.MinTileH = 48, 48
	return cfg
}

// soloDigests serves one session on an unmigrated single-process server
// — the digest chain every distributed continuation must reproduce.
func soloDigests(t *testing.T, mc medgen.Config) []uint64 {
	t.Helper()
	srv, err := core.NewServer(core.ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewMedgenSource(mc, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(src, testSessionConfig()); err != nil {
		t.Fatal(err)
	}
	outs, err := srv.ServeAll(64)
	if err != nil {
		t.Fatal(err)
	}
	var digests []uint64
	for _, out := range outs {
		if gop := out.GOPs[0]; gop != nil {
			digests = append(digests, gop.Digest)
		}
	}
	return digests
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// eventLog collects master events thread-safely.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) count(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Event == kind {
			n++
		}
	}
	return n
}

func (l *eventLog) find(kind string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Event == kind {
			out = append(out, e)
		}
	}
	return out
}

// TestMasterFailoverBitIdentical is the distributed acceptance
// scenario (ISSUE 8): a master routes sessions to two agent processes,
// one agent is killed mid-stream, the master detects the missed
// heartbeats and re-imports the victim's checkpointed sessions into the
// survivor — and every session's stitched digest chain (victim prefix +
// survivor continuation) equals the unmigrated single-process run, with
// no GOP lost. The same bar as serve's TestFleetElasticChurn, across a
// process boundary.
func TestMasterFailoverBitIdentical(t *testing.T) {
	// Long enough streams that the kill provably lands mid-stream: the
	// master's checkpoint view lags reality by a heartbeat period, so a
	// too-short session can complete in the gap between victim selection
	// and the cancel landing, leaving nothing to fail over.
	const frames = 64 // 16 GOPs per session at GOPSize 4
	specs := []medgen.Config{
		testMedgenConfig(medgen.Brain, medgen.Rotate, frames),
		testMedgenConfig(medgen.Chest, medgen.Pan, frames),
		testMedgenConfig(medgen.Bone, medgen.Sweep, frames),
		testMedgenConfig(medgen.SpinalCord, medgen.Still, frames),
	}
	want := make(map[string][]uint64, len(specs))
	for _, mc := range specs {
		want[mc.Class.String()] = soloDigests(t, mc)
	}

	events := &eventLog{}
	// Generous margins: under -race the agents' serving goroutines can
	// starve the heartbeat loop for hundreds of milliseconds, and a
	// false-positive death would flap the registry.
	master, err := NewMaster(MasterConfig{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 1500 * time.Millisecond,
		OnEvent:          events.add,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	if err := master.Start(mctx); err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	type node struct {
		agent  *Agent
		rec    *recorder
		cancel context.CancelFunc
	}
	newNode := func(name string) *node {
		rec := &recorder{}
		ag, err := NewAgent(AgentConfig{
			Name:            name,
			Addr:            "127.0.0.1:0",
			MasterURL:       master.URL(),
			HeartbeatEvery:  40 * time.Millisecond,
			CheckpointEvery: 1,
			Sink:            rec,
		}, serve.WithShards(1),
			// Pace each shard round so the 16-GOP streams span real wall
			// clock. Unpaced, a scheduler-friendly run serves all 64
			// frames inside one 40ms heartbeat period and the master
			// never caches a mid-stream checkpoint — victim selection
			// below would spin until its deadline.
			serve.WithRoundHook(func(int, *core.GOPOutcome) {
				time.Sleep(30 * time.Millisecond)
			}))
		if err != nil {
			t.Fatal(err)
		}
		actx, acancel := context.WithCancel(context.Background())
		if err := ag.Start(actx); err != nil {
			acancel()
			t.Fatal(err)
		}
		return &node{agent: ag, rec: rec, cancel: acancel}
	}
	nodes := map[string]*node{"agent-a": newNode("agent-a"), "agent-b": newNode("agent-b")}
	defer func() {
		for _, n := range nodes {
			n.cancel()
		}
	}()

	client := DefaultClient()
	ctx := context.Background()
	stats := func() StatsResponse {
		var s StatsResponse
		if err := client.GetJSON(ctx, master.URL()+"/v1/stats", &s); err != nil {
			t.Logf("stats: %v", err)
		}
		return s
	}
	waitUntil(t, 10*time.Second, "both agents to register", func() bool { return stats().Live == 2 })

	// Submit everything through the master's front door.
	sessionsOn := make(map[string]int)
	for _, mc := range specs {
		src, err := NewMedgenSource(mc, "")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := src.Spec()
		if err != nil {
			t.Fatal(err)
		}
		var resp RoutedSubmitResponse
		req := SubmitRequest{Version: ProtocolVersion, Source: spec, Config: testSessionConfig()}
		if err := client.PostJSON(ctx, master.URL()+"/v1/submit", req, &resp); err != nil {
			t.Fatalf("submit %s: %v", mc.Class, err)
		}
		if _, ok := nodes[resp.Agent]; !ok {
			t.Fatalf("submission routed to unknown agent %q", resp.Agent)
		}
		sessionsOn[resp.Agent]++
		t.Logf("submitted %s → %s shard %d session %d", mc.Class, resp.Agent, resp.Shard, resp.Session)
	}

	// Pick the victim: the agent the ring loaded the most — the richer
	// failover path (several re-imports plus the warm LUT handoff), and
	// one fixed mode instead of a race-dependent coin flip. Don't kill
	// it until the master's checkpoint cache covers EVERY session routed
	// to it with a mid-stream frame: a kill landing before a session's
	// first checkpointed heartbeat would (by design) lose that session,
	// and a kill after one ends would have nothing left to resume.
	var victim string
	for name, n := range sessionsOn {
		if victim == "" || n > sessionsOn[victim] {
			victim = name
		}
	}
	if sessionsOn[victim] < 2 {
		t.Fatalf("ring spread sessions %v — expected one agent to carry at least 2", sessionsOn)
	}
	waitUntil(t, 60*time.Second, "the victim's sessions to be checkpointed mid-stream", func() bool {
		var agents AgentsResponse
		if err := client.GetJSON(ctx, master.URL()+"/v1/agents", &agents); err != nil {
			return false
		}
		for _, a := range agents.Agents {
			if a.Name != victim {
				continue
			}
			if len(a.Checkpoints) != sessionsOn[victim] {
				return false
			}
			for _, ck := range a.Checkpoints {
				// Early-to-mid stream, so plenty of GOPs remain to serve
				// on the survivor even after the heartbeat-lagged kill
				// lands.
				if ck.Frame < 4 || ck.Frame > frames/2 {
					return false
				}
			}
			return true
		}
		return false
	})

	// Kill it: context cancellation tears down its fleet, HTTP server and
	// heartbeat loop mid-flight — no drain, no goodbye.
	t.Logf("killing %s", victim)
	nodes[victim].cancel()

	// The master must declare it dead and re-import its sessions; the
	// whole corpus must then complete on the survivors. Completed can
	// exceed the submission count when the victim finished a GOP after
	// its last heartbeat (the survivor re-serves from the older
	// checkpoint) — duplicates are tolerated, losses are not.
	deadline := time.Now().Add(120 * time.Second)
	for {
		s := stats()
		if s.Reimported >= 1 && s.Completed >= len(specs) {
			break
		}
		if time.Now().After(deadline) {
			var agents AgentsResponse
			_ = client.GetJSON(ctx, master.URL()+"/v1/agents", &agents)
			t.Fatalf("timed out waiting for failover completion: stats %+v agents %+v", s, agents)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if n := events.count("agent_dead"); n != 1 {
		t.Fatalf("%d agent_dead events, want 1 (%+v)", n, events.find("agent_dead"))
	}
	if got := events.find("agent_dead")[0].Agent; got != victim {
		t.Fatalf("agent_dead names %q, victim was %q", got, victim)
	}
	reimports := events.find("session_reimported")
	if len(reimports) == 0 {
		t.Fatal("no session_reimported events — the failover never moved a session")
	}
	midStream := 0
	for _, e := range reimports {
		if e.Agent != victim {
			t.Fatalf("re-import sourced from %q, victim was %q", e.Agent, victim)
		}
		// A frame-0 re-import is a session the victim had admitted but
		// never served a GOP of — restarting it loses nothing. At least
		// one re-import must be a genuine mid-stream resume, though:
		// that is the wire format earning its keep.
		if e.Frame >= 4 {
			midStream++
		} else {
			t.Logf("session %d re-imported at frame %d (victim never served it — clean restart)", e.Session, e.Frame)
		}
	}
	if midStream == 0 {
		t.Fatalf("all %d re-imports were at frame < 4 — no mid-stream resume demonstrated", len(reimports))
	}
	if n := events.count("session_lost"); n != 0 {
		t.Fatalf("%d sessions lost: %+v", n, events.find("session_lost"))
	}

	// The survivors must have adopted them with the cross-process marker.
	crossImports := 0
	for name, n := range nodes {
		if name != victim {
			crossImports += n.rec.crossImports()
		}
	}
	if crossImports != len(reimports) {
		t.Fatalf("%d cross-process imports on survivors, master journaled %d", crossImports, len(reimports))
	}

	// Bit-identity: every class's digests — victim prefix, survivor
	// continuation, duplicates included — must match the unmigrated solo
	// run GOP-for-GOP, and no GOP index may be missing.
	perClass := make(map[string]map[int][]uint64)
	for _, n := range nodes {
		n.rec.digestsByClass(perClass)
	}
	for class, wantChain := range want {
		seen := perClass[class]
		if seen == nil {
			t.Fatalf("class %s: no GOPs recorded anywhere", class)
		}
		for idx, wantDigest := range wantChain {
			digests := seen[idx]
			if len(digests) == 0 {
				t.Fatalf("class %s: GOP %d lost (served nowhere)", class, idx)
			}
			for _, d := range digests {
				if d != wantDigest {
					t.Fatalf("class %s GOP %d: digest %016x, solo run %016x", class, idx, d, wantDigest)
				}
			}
		}
		total := 0
		for idx, digests := range seen {
			if idx >= len(wantChain) {
				t.Fatalf("class %s: spurious GOP index %d beyond the solo run", class, idx)
			}
			total += len(digests)
		}
		if total > len(wantChain) {
			t.Logf("class %s: %d duplicate GOP(s) from the checkpoint/kill window (tolerated)", class, total-len(wantChain))
		}
	}
}

// TestMasterRoutesByRingWithFallback: the master's routing is keyed by
// agent NAME on the shared ring — the home agent gets the class, and
// with the home gone the submission falls through to a survivor.
func TestMasterRoutesByRing(t *testing.T) {
	events := &eventLog{}
	master, err := NewMaster(MasterConfig{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 1500 * time.Millisecond,
		OnEvent:          events.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	if err := master.Start(mctx); err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	names := []string{"node-1", "node-2", "node-3"}
	cancels := make(map[string]context.CancelFunc)
	for _, name := range names {
		ag, err := NewAgent(AgentConfig{
			Name:           name,
			Addr:           "127.0.0.1:0",
			MasterURL:      master.URL(),
			HeartbeatEvery: 40 * time.Millisecond,
		}, serve.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		actx, acancel := context.WithCancel(context.Background())
		if err := ag.Start(actx); err != nil {
			t.Fatal(err)
		}
		cancels[name] = acancel
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	client := DefaultClient()
	ctx := context.Background()
	waitUntil(t, 10*time.Second, "agents to register", func() bool {
		var s StatsResponse
		_ = client.GetJSON(ctx, master.URL()+"/v1/stats", &s)
		return s.Live == len(names)
	})

	// The expected home is pure ring math over the names — independent
	// of registration order (the serve.Ring order-independence tests pin
	// that property; here we pin that the master actually uses it).
	ring := serve.NewRing(names, serve.RingReplicas)
	const class = "brain"
	home := ring.MemberFor(class)

	submit := func() RoutedSubmitResponse {
		t.Helper()
		mc := testMedgenConfig(medgen.Brain, medgen.Still, 4)
		src, err := NewMedgenSource(mc, "")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := src.Spec()
		if err != nil {
			t.Fatal(err)
		}
		var resp RoutedSubmitResponse
		req := SubmitRequest{Version: ProtocolVersion, Source: spec, Config: testSessionConfig()}
		if err := client.PostJSON(ctx, master.URL()+"/v1/submit", req, &resp); err != nil {
			t.Fatalf("submit: %v", err)
		}
		return resp
	}

	if got := submit(); got.Agent != home {
		t.Fatalf("class %q routed to %q, ring home is %q", class, got.Agent, home)
	}

	// Kill the home agent; once the master declares it dead the same
	// class must route to a survivor instead of erroring.
	cancels[home]()
	waitUntil(t, 10*time.Second, "home agent to be declared dead", func() bool {
		return events.count("agent_dead") > 0
	})
	if got := submit(); got.Agent == home {
		t.Fatalf("dead home %q still receiving submissions", home)
	}
}

// TestMasterRouteOrder pins the master's candidate order, the fleet's
// serve.PlacementOrder over one summed load report per agent: the class's
// ring home first, a dead agent never, then ascending utilization with
// equal loads tie-broken by name.
func TestMasterRouteOrder(t *testing.T) {
	m, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	shards := func(demands ...int) []core.LoadReport {
		var out []core.LoadReport
		for _, d := range demands {
			out = append(out, core.LoadReport{Sessions: d, DemandCores: d, CapacityCores: 16, Util: float64(d) / 16, Alive: true})
		}
		return out
	}
	for _, a := range []*agentState{
		{name: "node-c", loads: shards(2, 0)}, // 2/32, registered first
		{name: "node-a", loads: shards(6, 2)}, // 8/32
		{name: "node-d", loads: shards(0), dead: true},
		{name: "node-b", loads: append(shards(1, 1), core.LoadReport{})}, // 2/32; the dead shard adds nothing
	} {
		a.url = "http://" + a.name
		m.agents[a.name] = a
	}
	m.rebuildRingLocked()
	homedOn := func(agent string) string {
		for i := 0; ; i++ {
			if class := fmt.Sprintf("class-%d", i); m.ring.MemberFor(class) == agent {
				return class
			}
		}
	}
	for _, tc := range []struct{ home, want string }{
		{"node-a", "[node-a node-b node-c]"},
		{"node-b", "[node-b node-c node-a]"},
		{"node-c", "[node-c node-b node-a]"},
	} {
		var got []string
		for _, c := range m.route(homedOn(tc.home)) {
			if c.url != "http://"+c.name {
				t.Fatalf("candidate %+v carries another agent's URL", c)
			}
			got = append(got, c.name)
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("class homed on %s: candidates %v, want %s", tc.home, got, tc.want)
		}
	}
}

// TestMasterHearsRestartedAgent: an agent restarted under its old name is
// a fresh process with a fresh heartbeat counter. The master must take its
// first beat as the node's current state — new URL included — however
// many beats the previous incarnation sent, and must fail over the session
// the previous incarnation checkpointed even though the restart came back
// inside the heartbeat timeout.
func TestMasterHearsRestartedAgent(t *testing.T) {
	m, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	beat := func(a *Agent) {
		t.Helper()
		body, err := json.Marshal(a.heartbeat())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		m.handleHeartbeat(rec, httptest.NewRequest(http.MethodPost, "/v1/heartbeat", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("heartbeat answered %d %q", rec.Code, rec.Body.String())
		}
	}
	incarnation := func(url string) *Agent {
		t.Helper()
		a, err := NewAgent(AgentConfig{Name: "node-a", Addr: "127.0.0.1:0", AdvertiseURL: url})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// The restarted process answers imports; it is the only live node, so
	// failover must bring the checkpointed session back to it.
	var mu sync.Mutex
	var imported []*core.SessionWire
	restarted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ImportRequest
		if r.URL.Path != "/v1/import" || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.Error(w, "unexpected request", http.StatusBadRequest)
			return
		}
		mu.Lock()
		imported = append(imported, req.Session)
		mu.Unlock()
		writeJSON(w, http.StatusOK, ImportResponse{})
	}))
	defer restarted.Close()

	first := incarnation("http://127.0.0.1:1")
	wire := goldenSessionWire(t)
	first.storeCheckpoint(0, []*core.SessionWire{wire})
	for i := 0; i < 50; i++ {
		beat(first)
	}
	beat(incarnation(restarted.URL))

	rec := httptest.NewRecorder()
	m.handleAgents(rec, httptest.NewRequest(http.MethodGet, "/v1/agents", nil))
	var got AgentsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Agents) != 1 || got.Agents[0].URL != restarted.URL || !got.Agents[0].Alive {
		t.Fatalf("after the restart /v1/agents lists %+v, want node-a alive at %s", got.Agents, restarted.URL)
	}

	m.checkOnce(context.Background(), time.Now())
	mu.Lock()
	defer mu.Unlock()
	if len(imported) != 1 || imported[0].DonorID != wire.DonorID || imported[0].Frame != wire.Frame {
		t.Fatalf("failover imported %d sessions, want the checkpointed session %d at frame %d", len(imported), wire.DonorID, wire.Frame)
	}
	if m.reimported != 1 || m.lost != 0 {
		t.Fatalf("master counts %d re-imported, %d lost; want 1 and 0", m.reimported, m.lost)
	}
}
