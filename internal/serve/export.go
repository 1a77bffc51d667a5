package serve

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// The fleet's cross-process surface: what internal/dist needs to run a
// Fleet behind a network agent — periodic non-destructive checkpoints of
// every session's wire state (WithCheckpoint), adoption of sessions
// restored from a remote peer's wire snapshot (Import), and the LUT
// warm handoff in both directions (MergeLUTs, StoreSnapshot). Sessions
// leave a fleet's process only through those checkpoints: a master that
// loses an agent re-imports them elsewhere (DESIGN.md §8).

// WithCheckpoint wires every session's crash-recovery state (a
// core.SessionWire per checkpointable session — see
// core.Server.CheckpointSessions) out of each shard every `every` settled
// rounds. The callback runs on the shard's serving goroutine between
// rounds: it must not block (ship the wires to a channel or swap them
// into a cache) and must not call serving methods. It receives an empty
// slice when nothing is checkpointable — completed sessions drop out of
// the caller's cache that way instead of being resurrected on failover.
func WithCheckpoint(every int, fn func(shard int, wires []*core.SessionWire)) Option {
	return func(o *options) {
		if every <= 0 {
			o.errs = append(o.errs, fmt.Errorf("serve: checkpoint interval %d rounds", every))
			return
		}
		if fn == nil {
			o.errs = append(o.errs, errors.New("serve: nil checkpoint callback"))
			return
		}
		o.checkpointEvery = every
		o.checkpoint = fn
	}
}

// Import adopts a session snapshot restored from another process
// (core.SessionWire.Restore) into this fleet: routed like rehome routes
// a departing shard's sessions — class home first, then the load
// fallback — with the landing shard's supervisor revived if its serving
// loop had already wound down. The migration event carries FromShard -1:
// the donor is not a shard of this fleet, and the JSONL sink's
// "session_migrated" with from_shard -1 is exactly how a cross-process
// re-import is distinguished from an in-fleet move. Safe from any
// goroutine, like Submit.
func (f *Fleet) Import(snap *core.SessionSnapshot) (Placement, error) {
	if snap == nil || snap.Session == nil {
		return Placement{}, errors.New("serve: import of nil snapshot")
	}
	order := PlacementOrder(f.Loads(), f.HomeShard(snap.Class), 0, f.opts.capacity)
	p, err := f.adopt(snap, -1, order, Sink.OnSessionMigrated)
	if err != nil {
		return Placement{}, fmt.Errorf("serve: import: %w", err)
	}
	return p, nil
}

// MergeLUTs folds a remote peer's workload LUT store into this fleet,
// each class into its home shard's store — the same warm-handoff rule
// rehome applies between local shards, extended across the process
// boundary. Call it before importing the sessions the store warms,
// so their first round estimates warm. Safe from any goroutine; a nil
// store is a no-op.
func (f *Fleet) MergeLUTs(st *workload.Store) {
	if st == nil {
		return
	}
	for _, class := range st.Classes() {
		if ti := f.HomeShard(class); ti >= 0 {
			f.shardAt(ti).srv.Store().MergeClass(st, class)
		}
	}
}

// StoreSnapshot merges every live shard's per-class workload LUT store
// into one detached snapshot — the warm-handoff payload an agent ships
// with its heartbeats so a master can re-import its sessions elsewhere
// with warm estimation state (workload.Store.Save is its wire
// format). Safe from any goroutine; the snapshot is a deep copy.
func (f *Fleet) StoreSnapshot() *workload.Store {
	f.mu.Lock()
	var stores []*workload.Store
	for _, s := range f.shards {
		if !s.removed {
			stores = append(stores, s.srv.Store())
		}
	}
	f.mu.Unlock()
	out := workload.NewStore()
	for _, st := range stores {
		out.Merge(st)
	}
	return out
}
