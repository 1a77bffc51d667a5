package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// AgentConfig configures one agent node.
type AgentConfig struct {
	// Name is the node's unique identity — the master's registry key and
	// its consistent-hash ring member name, so it must be stable across
	// restarts for routing to be stable.
	Name string
	// Addr is the HTTP listen address (e.g. "127.0.0.1:0").
	Addr string
	// AdvertiseURL is the base URL peers reach this agent at; empty
	// derives "http://<bound addr>" from the listener.
	AdvertiseURL string
	// MasterURL is the master's base URL; empty runs the agent
	// standalone (no heartbeats, still fully drivable over HTTP).
	MasterURL string
	// HeartbeatEvery paces the heartbeat loop. Default 1s.
	HeartbeatEvery time.Duration
	// CheckpointEvery is the wire-checkpoint cadence in settled rounds
	// per shard (serve.WithCheckpoint). Every checkpoint refreshes the
	// failover inventory the next heartbeat ships. Default 2.
	CheckpointEvery int
	// Binder re-opens submitted and imported sources (nil = bindSource).
	Binder core.SourceBinder
	// Sink receives the fleet's telemetry (optional); it is handed to the
	// embedded fleet as its serve.WithSink.
	Sink serve.Sink
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// Agent wraps one local serve.Fleet behind the HTTP front door and
// keeps a master informed via heartbeats. Build with NewAgent, start
// with Start, stop by cancelling the context (crash-equivalent) or
// Close (graceful).
type Agent struct {
	cfg    AgentConfig
	fleet  *serve.Fleet
	client *Client

	mu          sync.Mutex
	checkpoints map[int][]*core.SessionWire // shard → latest wires
	// incarnation tells this agent's beats from those of an earlier or
	// later process under the same name. It is random, not read from the
	// clock: only its uniqueness matters, never its order.
	incarnation int64
	seq         atomic.Int64

	ln      net.Listener
	srv     *http.Server
	started bool
	done    chan struct{}
	runErr  error
}

// NewAgent builds an agent and its fleet. fleetOpts configure the
// embedded serve.Fleet (shards, platforms, allocator, ...); the agent
// adds its own checkpoint hook on top, so do not pass
// serve.WithCheckpoint here — use AgentConfig.CheckpointEvery.
func NewAgent(cfg AgentConfig, fleetOpts ...serve.Option) (*Agent, error) {
	if cfg.Name == "" {
		return nil, errors.New("dist: agent needs a name")
	}
	if cfg.Addr == "" {
		return nil, errors.New("dist: agent needs a listen address")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 2
	}
	if cfg.Binder == nil {
		cfg.Binder = bindSource
	}
	a := &Agent{
		cfg:         cfg,
		client:      DefaultClient(),
		checkpoints: make(map[int][]*core.SessionWire),
		incarnation: rand.Int64(),
		done:        make(chan struct{}),
	}
	opts := append(append([]serve.Option(nil), fleetOpts...),
		serve.WithCheckpoint(cfg.CheckpointEvery, a.storeCheckpoint))
	if cfg.Sink != nil {
		opts = append(opts, serve.WithSink(cfg.Sink))
	}
	fleet, err := serve.New(opts...)
	if err != nil {
		return nil, err
	}
	a.fleet = fleet
	return a, nil
}

// Fleet exposes the embedded fleet (tests and embedders).
func (a *Agent) Fleet() *serve.Fleet { return a.fleet }

// storeCheckpoint is the serve.WithCheckpoint callback: swap the
// shard's latest wire inventory into the cache the heartbeat loop
// reads. Runs on the shard's serving goroutine — no blocking.
func (a *Agent) storeCheckpoint(shard int, wires []*core.SessionWire) {
	a.mu.Lock()
	a.checkpoints[shard] = wires
	a.mu.Unlock()
}

// url is the base URL peers reach this agent at (valid after Start).
func (a *Agent) url() string {
	if a.cfg.AdvertiseURL != "" {
		return a.cfg.AdvertiseURL
	}
	if a.ln == nil {
		return ""
	}
	return "http://" + a.ln.Addr().String()
}

// Start binds the listener and launches the serving loops: the fleet's
// Run, the HTTP server, and (with a master configured) the heartbeat
// loop. Cancelling ctx tears everything down mid-flight — the
// crash-equivalent stop a failover test kills an agent with; Close is
// the graceful path.
func (a *Agent) Start(ctx context.Context) error {
	if a.started {
		return errors.New("dist: agent already started")
	}
	a.started = true
	ln, err := net.Listen("tcp", a.cfg.Addr)
	if err != nil {
		return fmt.Errorf("dist: agent listener: %w", err)
	}
	a.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", a.handleHealth)
	mux.HandleFunc("POST /v1/submit", a.handleSubmit)
	mux.HandleFunc("POST /v1/import", a.handleImport)
	a.srv = &http.Server{Handler: mux}

	go func() {
		if err := a.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			a.logf("agent %s: http: %v", a.cfg.Name, err)
		}
	}()
	go func() {
		<-ctx.Done()
		a.srv.Close()
	}()
	go func() {
		defer close(a.done)
		_, err := a.fleet.Run(ctx)
		a.runErr = err
	}()
	if a.cfg.MasterURL != "" {
		go a.heartbeatLoop(ctx)
	}
	a.logf("agent %s: serving on %s (master %q)", a.cfg.Name, a.url(), a.cfg.MasterURL)
	return nil
}

// Wait blocks until the fleet's serving loop ends (Close, or context
// cancellation) and returns its error.
func (a *Agent) Wait() error {
	<-a.done
	return a.runErr
}

// Close drains gracefully: the fleet stops accepting work and its Run
// returns once live sessions finish, then the HTTP server stops.
func (a *Agent) Close() {
	a.fleet.Close()
	<-a.done
	if a.srv != nil {
		a.srv.Close()
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// heartbeat builds one heartbeat message from the agent's live state.
func (a *Agent) heartbeat() Heartbeat {
	a.mu.Lock()
	var wires []*core.SessionWire
	for _, shard := range slices.Sorted(maps.Keys(a.checkpoints)) {
		wires = append(wires, a.checkpoints[shard]...)
	}
	a.mu.Unlock()
	rep := a.fleet.Report()
	hb := Heartbeat{
		Version:     ProtocolVersion,
		Name:        a.cfg.Name,
		URL:         a.url(),
		Incarnation: a.incarnation,
		Seq:         a.seq.Add(1),
		Loads:       a.fleet.Loads(),
		Checkpoints: wires,
		Completed:   rep.Completed,
		Failed:      rep.Failed,
		Rejected:    rep.Rejected,
	}
	var buf bytes.Buffer
	if err := a.fleet.StoreSnapshot().Save(&buf); err == nil {
		hb.LUTs = buf.Bytes()
	}
	return hb
}

func (a *Agent) heartbeatLoop(ctx context.Context) {
	tick := time.NewTicker(a.cfg.HeartbeatEvery)
	defer tick.Stop()
	url := a.cfg.MasterURL + "/v1/heartbeat"
	for {
		var resp HeartbeatResponse
		if err := a.client.PostJSON(ctx, url, a.heartbeat(), &resp); err != nil {
			if ctx.Err() != nil {
				return
			}
			a.logf("agent %s: heartbeat: %v", a.cfg.Name, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// maxRequestBytes bounds every request body a node will read. The
// largest legitimate body is a heartbeat: one wire checkpoint per live
// session — its encoder's reference frame in base64, 0.6 MB at 640×480 —
// plus the node's LUT store, so the cap leaves room for a hundred such
// sessions on one agent, several times what its shards can serve.
const maxRequestBytes = 64 << 20

// decodeRequest is the front half of every POST handler: it reads at most
// maxRequestBytes of body into dst and refuses a peer speaking another
// protocol version (version points into dst) before the handler looks at
// anything else in the payload. On failure the 4xx is already written and
// the handler must just return.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string, dst any, version *int) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(dst)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "%s body over %d bytes", what, maxRequestBytes)
	case err != nil:
		httpError(w, http.StatusBadRequest, "decode %s: %v", what, err)
	case *version != ProtocolVersion:
		httpError(w, http.StatusBadRequest, "protocol version %d, want %d", *version, ProtocolVersion)
	default:
		return true
	}
	return false
}

func (a *Agent) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Version: ProtocolVersion, Name: a.cfg.Name})
}

func (a *Agent) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeRequest(w, r, "submit", &req, &req.Version) {
		return
	}
	src, err := a.cfg.Binder(req.Source)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bind source: %v", err)
		return
	}
	p, err := a.fleet.SubmitWith(serve.SubmitRequest{
		Source:   src,
		Config:   req.Config,
		Tenant:   req.Tenant,
		Priority: req.Priority,
	})
	if err != nil {
		if errors.Is(err, tenancy.ErrRateLimited) {
			httpError(w, http.StatusTooManyRequests, "submit: %v", err)
			return
		}
		httpError(w, http.StatusServiceUnavailable, "submit: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{Shard: p.Shard, Session: p.Session.ID})
}

func (a *Agent) handleImport(w http.ResponseWriter, r *http.Request) {
	var req ImportRequest
	if !decodeRequest(w, r, "import", &req, &req.Version) {
		return
	}
	if req.Session == nil {
		httpError(w, http.StatusBadRequest, "import without a session")
		return
	}
	// Warm the LUTs first so the adopted session's very first round
	// estimates with the donor's learned work.
	if len(req.LUTs) > 0 {
		st, err := workload.LoadStore(bytes.NewReader(req.LUTs))
		if err != nil {
			httpError(w, http.StatusBadRequest, "decode LUT store: %v", err)
			return
		}
		a.fleet.MergeLUTs(st)
	}
	snap, err := req.Session.Restore(a.cfg.Binder)
	if err != nil {
		httpError(w, http.StatusBadRequest, "restore session: %v", err)
		return
	}
	p, err := a.fleet.Import(snap)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "import: %v", err)
		return
	}
	a.logf("agent %s: imported session %d (%s) at frame %d → shard %d session %d",
		a.cfg.Name, req.Session.DonorID, req.Session.Class, req.Session.Frame, p.Shard, p.Session.ID)
	writeJSON(w, http.StatusOK, ImportResponse{Shard: p.Shard, Session: p.Session.ID})
}
