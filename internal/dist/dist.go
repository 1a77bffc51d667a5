// Package dist is the cross-process front door of the fleet: a master
// process routes submissions over HTTP/JSON to agent processes, each
// wrapping one local serve.Fleet, and supervises them — an agent that
// stops heartbeating is declared dead and its sessions are re-imported
// into the survivors from the wire checkpoints it shipped while alive
// (core.SessionWire), resuming bit-identically at their last GOP
// boundary with the donor's workload LUTs warm (DESIGN.md §8).
//
// The package splits into four pieces:
//
//   - wire.go: the versioned HTTP/JSON message types, plus the "medgen"
//     source spec that lets a synthetic session be re-opened in another
//     process (core.SourceSpec / core.SourceBinder).
//   - retry.go: the Client every master→agent call goes through —
//     jittered exponential backoff with per-call timeouts, transient
//     failures (network errors, 5xx, 429) retried, permanent ones
//     (other 4xx) surfaced immediately as errPermanent.
//   - agent.go: the Agent — serve.Fleet behind an HTTP API (submit,
//     import, health) with a heartbeat loop shipping loads, session
//     checkpoints and LUT snapshots to the master.
//   - master.go: the Master — agent registry keyed by heartbeats,
//     consistent-hash routing over the agent names (serve.Ring) with a
//     least-loaded fallback, and the failover loop that re-homes a dead
//     agent's checkpointed sessions.
package dist

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/medgen"
)

// sourceKindMedgen names the synthetic bio-medical generator in a
// core.SourceSpec — the one source kind this repo can re-open on any
// machine from its spec alone (the generator is deterministic in its
// config).
const sourceKindMedgen = "medgen"

// MedgenSource is a core.SpeccedSource over the synthetic generator:
// the production FrameSource of the distributed fleet. Its spec is the
// generator config itself, so a peer process rebuilds a frame-exact
// replica from the wire.
type MedgenSource struct {
	*medgen.Generator
	cfg   medgen.Config // as submitted, before the generator's defaults
	class string
}

// NewMedgenSource builds a wire-capable source from a generator config.
// class is the workload-class routing key; empty defaults to the
// generator's body-part class name (a "-4k" style suffix is the caller's
// choice).
func NewMedgenSource(cfg medgen.Config, class string) (*MedgenSource, error) {
	gen, err := medgen.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	if class == "" {
		class = gen.Class()
	}
	return &MedgenSource{Generator: gen, cfg: cfg, class: class}, nil
}

// Class returns the workload-class routing key.
func (s *MedgenSource) Class() string { return s.class }

// Spec encodes the generator config, as submitted, as the session's wire
// source spec.
func (s *MedgenSource) Spec() (core.SourceSpec, error) {
	data, err := json.Marshal(s.cfg)
	if err != nil {
		return core.SourceSpec{}, err
	}
	return core.SourceSpec{Kind: sourceKindMedgen, Class: s.class, Data: data}, nil
}

var _ core.SpeccedSource = (*MedgenSource)(nil)

// maxSourcePixels bounds the geometry a spec from the wire may ask this
// node to render (8K UHD): the generator allocates and fills a frame of
// the spec's size on first use, and a few hundred bytes of request must
// not be able to size that.
const maxSourcePixels = 7680 * 4320

// bindSource is the default core.SourceBinder of the distributed fleet:
// it re-opens the source kinds this package knows how to ship. Unknown
// kinds are an explicit error — an agent must refuse a session it cannot
// actually feed rather than serve garbage.
func bindSource(spec core.SourceSpec) (core.FrameSource, error) {
	switch spec.Kind {
	case sourceKindMedgen:
		var cfg medgen.Config
		if err := json.Unmarshal(spec.Data, &cfg); err != nil {
			return nil, fmt.Errorf("dist: medgen spec: %w", err)
		}
		// Dividing keeps the product from overflowing into range.
		if cfg.Width > 0 && cfg.Height > maxSourcePixels/cfg.Width {
			return nil, fmt.Errorf("dist: medgen spec: %dx%d is over %d pixels", cfg.Width, cfg.Height, maxSourcePixels)
		}
		return NewMedgenSource(cfg, spec.Class)
	default:
		return nil, fmt.Errorf("dist: unknown source kind %q", spec.Kind)
	}
}
