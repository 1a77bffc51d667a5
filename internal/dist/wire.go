package dist

import (
	"encoding/json"

	"repro/internal/core"
)

// The master↔agent HTTP/JSON protocol (DESIGN.md §8). Versioning rules
// mirror core.SessionWire's: ProtocolVersion is bumped when a field
// changes meaning or disappears; adding an optional field with a
// harmless zero value is a compatible change and keeps the version.
// Peers reject versions they do not know — a mixed-version fleet must
// fail loudly at the front door, not corrupt sessions mid-migration.
//
// Version history:
//
//	1 — initial protocol.
//	2 — SubmitRequest carries the tenant id and priority class
//	    (multi-tenant QoS). The fields are zero-default, but a v1 peer
//	    routing a tenant-tagged submission would silently strip its QoS
//	    identity — a meaning change, hence the bump.
const ProtocolVersion = 2

// Agent endpoints (all JSON bodies):
//
//	GET  /v1/healthz  → HealthResponse
//	POST /v1/submit   SubmitRequest  → SubmitResponse
//	POST /v1/import   ImportRequest  → ImportResponse
//
// Master endpoints:
//
//	GET  /v1/healthz   → HealthResponse
//	POST /v1/heartbeat Heartbeat     → HeartbeatResponse
//	POST /v1/submit    SubmitRequest → RoutedSubmitResponse
//	GET  /v1/agents    → AgentsResponse
//	GET  /v1/stats     → StatsResponse

// HealthResponse answers a liveness probe.
type HealthResponse struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
}

// SubmitRequest opens a new session: the source is shipped as a spec
// (never as pixels) and re-opened by the serving agent's binder. Since
// v2 it also carries the session's QoS identity — the tenant the
// session bills to ("" = the default tenant) and its priority class
// (0 = best effort) — which the receiving agent hands to its fleet's
// SubmitWith front door.
type SubmitRequest struct {
	Version  int                `json:"version"`
	Source   core.SourceSpec    `json:"source"`
	Config   core.SessionConfig `json:"config"`
	Tenant   string             `json:"tenant,omitempty"`
	Priority int                `json:"priority,omitempty"`
}

// SubmitResponse reports where an agent placed a submission.
type SubmitResponse struct {
	Shard   int `json:"shard"`
	Session int `json:"session"`
}

// RoutedSubmitResponse is the master's answer: which agent took the
// session, and where that agent placed it.
type RoutedSubmitResponse struct {
	Agent   string `json:"agent"`
	Shard   int    `json:"shard"`
	Session int    `json:"session"`
}

// ImportRequest adopts one checkpointed session into the receiving
// agent, optionally warming it with the donor's workload LUT store
// (workload.Store.Save bytes) so estimation stays warm across the
// machine boundary.
type ImportRequest struct {
	Version int               `json:"version"`
	Session *core.SessionWire `json:"session"`
	LUTs    json.RawMessage   `json:"luts,omitempty"`
}

// ImportResponse reports where the adopted session landed.
type ImportResponse struct {
	Shard   int `json:"shard"`
	Session int `json:"session"`
}

// Heartbeat is what an agent POSTs to its master every interval: its
// identity and address, the incarnation (process) it comes from and a
// sequence number monotonic within that incarnation, the per-shard load
// signal, the latest non-destructive wire checkpoints of every live
// session (the master's failover inventory), the merged workload LUT
// store, and the lifetime session counters.
type Heartbeat struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	URL         string `json:"url"`
	Incarnation int64  `json:"incarnation"`
	Seq         int64  `json:"seq"`

	Loads       []core.LoadReport   `json:"loads"`
	Checkpoints []*core.SessionWire `json:"checkpoints"`
	LUTs        json.RawMessage     `json:"luts,omitempty"`

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CheckpointInfo summarizes one cached session checkpoint for the
// master's status API (the full wire state stays internal).
type CheckpointInfo struct {
	Class   string `json:"class"`
	Session int    `json:"session"`
	Frame   int    `json:"frame"`
}

// AgentStatus is one registry row of the master's status API.
type AgentStatus struct {
	Name        string            `json:"name"`
	URL         string            `json:"url"`
	Alive       bool              `json:"alive"`
	Seq         int64             `json:"seq"`
	Loads       []core.LoadReport `json:"loads"`
	Checkpoints []CheckpointInfo  `json:"checkpoints"`
	Completed   int               `json:"completed"`
	Failed      int               `json:"failed"`
	Rejected    int               `json:"rejected"`
}

// AgentsResponse lists the master's registry, dead agents included.
type AgentsResponse struct {
	Agents []AgentStatus `json:"agents"`
}

// StatsResponse aggregates the fleet: session counters summed over live
// agents' latest heartbeats plus the retained counters of dead ones, and
// the master's own failover ledger.
type StatsResponse struct {
	Agents     int `json:"agents"`
	Live       int `json:"live"`
	Completed  int `json:"completed"`
	Failed     int `json:"failed"`
	Rejected   int `json:"rejected"`
	Reimported int `json:"reimported"`
	Lost       int `json:"lost"`
}
