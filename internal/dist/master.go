package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tenancy"
)

// Event is one line of the master's operational journal, delivered to
// MasterConfig.OnEvent (and serialized to JSONL by cmd/transcode).
type Event struct {
	// Kind: "agent_joined", "agent_rejoined", "agent_restarted",
	// "agent_dead", "submit_routed", "submit_rate_limited", "session_reimported",
	// "session_lost".
	Event string `json:"event"`
	// Agent is the subject node (the donor on failover events).
	Agent string `json:"agent,omitempty"`
	// Tenant is the billing tenant of a routed or refused submission
	// ("" = the default tenant, omitted).
	Tenant string `json:"tenant,omitempty"`
	// To is the receiving node of a routed or re-imported session.
	To      string `json:"to,omitempty"`
	Class   string `json:"class,omitempty"`
	Session int    `json:"session,omitempty"`
	Frame   int    `json:"frame,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// MasterConfig configures the routing/supervision node.
type MasterConfig struct {
	// Addr is the HTTP listen address.
	Addr string
	// HeartbeatTimeout is how long an agent may stay silent before it is
	// declared dead and failed over. Default 5s.
	HeartbeatTimeout time.Duration
	// Tenancy is the fleet-wide tenant registry (optional). When set,
	// the master charges each routed submission to its tenant's token
	// bucket — the one place a cross-process fleet can enforce a global
	// per-tenant rate — and answers over-rate submissions with HTTP 429.
	// Agents keep their own registry for weights and priorities, with
	// the rates stripped (tenancy.Config.WithoutRates), so a routed
	// submission is charged exactly once.
	Tenancy *tenancy.Registry
	// OnEvent receives the operational journal (optional). Called from
	// master goroutines, serialized by an internal lock.
	OnEvent func(Event)
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// agentState is one registry row.
type agentState struct {
	name        string
	url         string
	incarnation int64
	seq         int64
	lastBeat    time.Time
	dead        bool
	loads       []core.LoadReport
	checkpoints []*core.SessionWire
	luts        json.RawMessage
	completed   int
	failed      int
	rejected    int
}

// Master is the fleet's cross-process dispatcher and supervisor: agents
// register through heartbeats, submissions route over the consistent
// hash of the workload class across agent names (least-loaded fallback),
// and a dead agent's checkpointed sessions are re-imported into the
// survivors.
type Master struct {
	cfg    MasterConfig
	client *Client

	mu         sync.Mutex
	agents     map[string]*agentState
	ring       *serve.Ring
	reimported int
	lost       int
	// replaced holds the last state of agents a restart replaced before
	// they were declared dead; the next sweep fails it over.
	replaced []deadSnapshot

	eventMu sync.Mutex

	ln      net.Listener
	srv     *http.Server
	started bool
	done    chan struct{}
}

// NewMaster builds a master.
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Addr == "" {
		return nil, errors.New("dist: master needs a listen address")
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	return &Master{
		cfg:    cfg,
		client: DefaultClient(),
		agents: make(map[string]*agentState),
		ring:   serve.NewRing(nil, serve.RingReplicas),
		done:   make(chan struct{}),
	}, nil
}

// URL is the master's base URL (valid after Start).
func (m *Master) URL() string {
	if m.ln == nil {
		return ""
	}
	return "http://" + m.ln.Addr().String()
}

// Start binds the listener and launches the HTTP server and the
// supervision loop; both stop when ctx is cancelled.
func (m *Master) Start(ctx context.Context) error {
	if m.started {
		return errors.New("dist: master already started")
	}
	m.started = true
	ln, err := net.Listen("tcp", m.cfg.Addr)
	if err != nil {
		return fmt.Errorf("dist: master listener: %w", err)
	}
	m.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", m.handleHealth)
	mux.HandleFunc("POST /v1/heartbeat", m.handleHeartbeat)
	mux.HandleFunc("POST /v1/submit", m.handleSubmit)
	mux.HandleFunc("GET /v1/agents", m.handleAgents)
	mux.HandleFunc("GET /v1/stats", m.handleStats)
	m.srv = &http.Server{Handler: mux}
	go func() {
		if err := m.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			m.logf("master: http: %v", err)
		}
	}()
	go func() {
		<-ctx.Done()
		m.srv.Close()
	}()
	go m.superviseLoop(ctx)
	m.logf("master: serving on %s", m.URL())
	return nil
}

// Close stops the HTTP server and the supervision loop.
func (m *Master) Close() {
	if m.srv != nil {
		m.srv.Close()
	}
	select {
	case <-m.done:
	default:
		close(m.done)
	}
}

func (m *Master) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

func (m *Master) emit(e Event) {
	if m.cfg.OnEvent == nil {
		return
	}
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	m.cfg.OnEvent(e)
}

// rebuildRingLocked rebuilds the routing ring over the live agent
// names. Caller holds m.mu.
func (m *Master) rebuildRingLocked() {
	var names []string
	for name, a := range m.agents {
		if !a.dead {
			names = append(names, name)
		}
	}
	m.ring = serve.NewRing(names, serve.RingReplicas)
}

// candidate is an immutable routing target — name and URL copied out of
// the registry under the lock, so callers can dial without racing the
// heartbeat writes that keep agentState fresh.
type candidate struct {
	name string
	url  string
}

// route orders the live agents for a class with the fleet's own
// placement order (serve.PlacementOrder): one summed load report per
// agent, in name order, Alive unless the agent is declared dead, and the
// class's consistent-hash home first — registration order must not
// matter, only the name-keyed ring — then the rest by ascending
// utilization, ties to fewer sessions, then the name.
func (m *Master) route(class string) []candidate {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := m.sortedNamesLocked()
	loads := make([]core.LoadReport, len(names))
	home, homeName := -1, m.ring.MemberFor(class)
	for i, name := range names {
		loads[i] = serve.SumLoads(m.agents[name].loads)
		loads[i].Alive = !m.agents[name].dead
		if name == homeName {
			home = i
		}
	}
	var out []candidate
	for _, i := range serve.PlacementOrder(loads, home, 0, 0) {
		out = append(out, candidate{name: names[i], url: m.agents[names[i]].url})
	}
	return out
}

// --- supervision & failover ---

func (m *Master) superviseLoop(ctx context.Context) {
	// Four looks per timeout: a silent agent is declared dead at most a
	// quarter of the grace late.
	tick := time.NewTicker(m.cfg.HeartbeatTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-m.done:
			return
		case <-tick.C:
			m.checkOnce(ctx, time.Now())
		}
	}
}

// deadSnapshot is everything failover needs from a declared-dead agent,
// copied out of the registry under the lock: a rejoin heartbeat racing
// the failover must not mutate what is being re-imported.
type deadSnapshot struct {
	name        string
	checkpoints []*core.SessionWire
	luts        json.RawMessage
}

// checkOnce sweeps the registry for agents past the heartbeat deadline
// and fails over their cached sessions, and those of every incarnation a
// restart replaced since the last sweep.
func (m *Master) checkOnce(ctx context.Context, now time.Time) {
	m.mu.Lock()
	replaced := m.replaced
	m.replaced = nil
	var died []deadSnapshot
	for _, a := range m.agents {
		if !a.dead && now.Sub(a.lastBeat) > m.cfg.HeartbeatTimeout {
			a.dead = true
			died = append(died, deadSnapshot{name: a.name, checkpoints: a.checkpoints, luts: a.luts})
		}
	}
	if len(died) > 0 {
		m.rebuildRingLocked()
	}
	m.mu.Unlock()
	for _, d := range died {
		m.logf("master: agent %s missed its heartbeat deadline (%d checkpointed sessions to fail over)",
			d.name, len(d.checkpoints))
		m.emit(Event{Event: "agent_dead", Agent: d.name, Detail: fmt.Sprintf("%d sessions to re-import", len(d.checkpoints))})
		m.failover(ctx, d)
	}
	for _, d := range replaced {
		m.failover(ctx, d)
	}
}

// failover re-imports a dead agent's checkpointed sessions into the
// survivors: each session goes to its class's ring home (least-loaded
// fallback, next candidate on error), resuming from its last exported
// GOP-boundary snapshot. The donor's LUT store rides along on the first
// import each survivor receives, so estimation stays warm without
// re-shipping the store per session. A session no live agent accepts is
// lost — counted and journaled, never silently dropped.
func (m *Master) failover(ctx context.Context, dead deadSnapshot) {
	shipped := make(map[string]bool)
	for _, wire := range dead.checkpoints {
		placed := false
		for _, target := range m.route(wire.Class) {
			req := ImportRequest{Version: ProtocolVersion, Session: wire}
			if !shipped[target.name] {
				req.LUTs = dead.luts
			}
			var resp ImportResponse
			if err := m.client.PostJSON(ctx, target.url+"/v1/import", req, &resp); err != nil {
				m.logf("master: re-import of session %d (%s) into %s: %v",
					wire.DonorID, wire.Class, target.name, err)
				continue
			}
			shipped[target.name] = true
			m.mu.Lock()
			m.reimported++
			m.mu.Unlock()
			m.emit(Event{
				Event: "session_reimported", Agent: dead.name, To: target.name,
				Class: wire.Class, Session: wire.DonorID, Frame: wire.Frame,
			})
			m.logf("master: session %d (%s) re-imported %s → %s at frame %d",
				wire.DonorID, wire.Class, dead.name, target.name, wire.Frame)
			placed = true
			break
		}
		if !placed {
			m.mu.Lock()
			m.lost++
			m.mu.Unlock()
			m.emit(Event{
				Event: "session_lost", Agent: dead.name,
				Class: wire.Class, Session: wire.DonorID, Frame: wire.Frame,
			})
		}
	}
}

// --- HTTP handlers ---

func (m *Master) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Version: ProtocolVersion, Name: "master"})
}

func (m *Master) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if !decodeRequest(w, r, "heartbeat", &hb, &hb.Version) {
		return
	}
	if hb.Name == "" || hb.URL == "" {
		httpError(w, http.StatusBadRequest, "heartbeat without name/url")
		return
	}
	var joined, rejoined, restarted bool
	var orphaned int
	m.mu.Lock()
	a, ok := m.agents[hb.Name]
	if !ok {
		a = &agentState{name: hb.Name, incarnation: hb.Incarnation}
		m.agents[hb.Name] = a
		joined = true
	}
	if hb.Incarnation != a.incarnation {
		// A new process under this name: its sequence starts over, and
		// nobody serves the sessions its predecessor checkpointed. Unless
		// the predecessor was already declared dead, and so failed over,
		// the next sweep fails them over now: a restart inside the
		// heartbeat timeout must not drop them. (A beat of the old process
		// delivered late reads as one more restart: duplicates, no loss.)
		restarted = true
		if !a.dead && len(a.checkpoints) > 0 {
			orphaned = len(a.checkpoints)
			m.replaced = append(m.replaced, deadSnapshot{name: a.name, checkpoints: a.checkpoints, luts: a.luts})
		}
		a.incarnation, a.seq = hb.Incarnation, 0
	} else if hb.Seq < a.seq {
		// Stale delivery (retries can reorder) — acknowledge, change nothing.
		m.mu.Unlock()
		writeJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
		return
	}
	if a.dead {
		// A declared-dead agent beating again rejoins the ring. Its
		// sessions were already re-imported elsewhere; the duplicates
		// serve to completion on both nodes (idempotent outputs), which
		// supervision accepts rather than trying to kill remotely.
		a.dead = false
		rejoined = true
	}
	a.url = hb.URL
	a.seq = hb.Seq
	a.lastBeat = time.Now()
	a.loads = hb.Loads
	a.checkpoints = hb.Checkpoints
	if len(hb.LUTs) > 0 {
		a.luts = hb.LUTs
	}
	a.completed, a.failed, a.rejected = hb.Completed, hb.Failed, hb.Rejected
	if joined || rejoined {
		m.rebuildRingLocked()
	}
	m.mu.Unlock()
	if joined {
		m.logf("master: agent %s joined from %s", hb.Name, hb.URL)
		m.emit(Event{Event: "agent_joined", Agent: hb.Name, Detail: hb.URL})
	} else if rejoined {
		m.logf("master: agent %s rejoined from %s", hb.Name, hb.URL)
		m.emit(Event{Event: "agent_rejoined", Agent: hb.Name, Detail: hb.URL})
	} else if restarted {
		m.logf("master: agent %s restarted from %s (%d checkpointed sessions of its previous process to fail over)",
			hb.Name, hb.URL, orphaned)
		m.emit(Event{Event: "agent_restarted", Agent: hb.Name, Detail: fmt.Sprintf("%s; %d sessions to re-import", hb.URL, orphaned)})
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
}

func (m *Master) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeRequest(w, r, "submit", &req, &req.Version) {
		return
	}
	if m.cfg.Tenancy != nil {
		if err := m.cfg.Tenancy.Admit(req.Tenant); err != nil {
			m.emit(Event{Event: "submit_rate_limited", Tenant: req.Tenant, Class: req.Source.Class})
			httpError(w, http.StatusTooManyRequests, "route submit: %v", err)
			return
		}
	}
	var lastErr error
	for _, target := range m.route(req.Source.Class) {
		var resp SubmitResponse
		if err := m.client.PostJSON(r.Context(), target.url+"/v1/submit", req, &resp); err != nil {
			lastErr = err
			continue
		}
		m.emit(Event{Event: "submit_routed", To: target.name, Tenant: req.Tenant, Class: req.Source.Class, Session: resp.Session})
		writeJSON(w, http.StatusOK, RoutedSubmitResponse{Agent: target.name, Shard: resp.Shard, Session: resp.Session})
		return
	}
	if lastErr == nil {
		lastErr = errors.New("no live agents")
	}
	httpError(w, http.StatusServiceUnavailable, "route submit: %v", lastErr)
}

func (m *Master) handleAgents(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	var out AgentsResponse
	for _, name := range m.sortedNamesLocked() {
		a := m.agents[name]
		row := AgentStatus{
			Name: a.name, URL: a.url, Alive: !a.dead, Seq: a.seq,
			Loads:     a.loads,
			Completed: a.completed, Failed: a.failed, Rejected: a.rejected,
		}
		for _, wire := range a.checkpoints {
			row.Checkpoints = append(row.Checkpoints, CheckpointInfo{
				Class: wire.Class, Session: wire.DonorID, Frame: wire.Frame,
			})
		}
		out.Agents = append(out.Agents, row)
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (m *Master) sortedNamesLocked() []string {
	names := make([]string, 0, len(m.agents))
	for name := range m.agents {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// handleStats aggregates the fleet's session counters: live agents
// report theirs in heartbeats; dead agents' last-reported counters stay
// in the sum (their completed work happened). Sessions that completed
// on a victim after its last heartbeat re-run on a survivor from their
// last checkpoint, so Completed can exceed the submission count by the
// duplicates — never undercount.
func (m *Master) handleStats(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	var out StatsResponse
	out.Reimported = m.reimported
	out.Lost = m.lost
	for _, a := range m.agents {
		out.Agents++
		if !a.dead {
			out.Live++
		}
		out.Completed += a.completed
		out.Failed += a.failed
		out.Rejected += a.rejected
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
