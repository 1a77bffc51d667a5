package main

import (
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// sinkStats is what one wrapped sink cost: events delivered and time spent
// inside it, counted only while the measured window is open.
type sinkStats struct {
	events atomic.Int64
	ns     atomic.Int64
}

// probeSink wraps one of the sinks a workload attaches. It is the
// benchmark's probe at the sink boundary: it times every delivery, and the
// first probe of a fleet (lead) also stamps each session's first GOP — the
// end of the first-GOP latency a user sees.
type probeSink struct {
	name     string
	inner    serve.Sink
	rec      *recorder
	unitBase int  // unit of this fleet's shard 0
	lead     bool // stamps first GOPs; exactly one probe per fleet leads
	timed    bool // read the clock around every delivery (traced pass)
	stats    *sinkStats
}

// begin reads the clock if deliveries are being timed.
func (p *probeSink) begin() (t0 time.Time) {
	if p.timed {
		t0 = time.Now()
	}
	return t0
}

// end accounts one delivery that began at t0.
func (p *probeSink) end(t0 time.Time, unit, session int) {
	if !p.timed {
		return
	}
	t1 := time.Now()
	if p.rec.windowOpen() {
		p.stats.events.Add(1)
		p.stats.ns.Add(int64(t1.Sub(t0)))
	}
	p.rec.tr.record(p.name, unit, session, t0, t1)
}

func (p *probeSink) OnGOP(e serve.GOPEvent) {
	t0 := p.begin()
	p.inner.OnGOP(e)
	p.end(t0, p.unitBase+e.Shard, e.Session)
	if p.lead && e.GOP != nil && e.GOP.Index == 0 {
		p.rec.firstGOP(sessKey{p.unitBase + e.Shard, e.Session}, time.Now())
	}
}

func (p *probeSink) OnSessionStateChange(e serve.SessionEvent) {
	t0 := p.begin()
	p.inner.OnSessionStateChange(e)
	p.end(t0, p.unitBase+e.Shard, e.Session)
}

func (p *probeSink) OnSessionPlaced(e serve.PlacementEvent) {
	t0 := p.begin()
	p.inner.OnSessionPlaced(e)
	p.end(t0, p.unitBase+e.Shard, e.Session)
}

func (p *probeSink) OnRoundMetrics(e serve.RoundEvent) {
	t0 := p.begin()
	p.inner.OnRoundMetrics(e)
	p.end(t0, p.unitBase+e.Shard, -1)
}

func (p *probeSink) OnShardAdded(e serve.ShardEvent) { p.inner.OnShardAdded(e) }

func (p *probeSink) OnShardRemoved(e serve.ShardEvent) { p.inner.OnShardRemoved(e) }

func (p *probeSink) OnSessionMigrated(e serve.MigrationEvent) { p.inner.OnSessionMigrated(e) }

func (p *probeSink) OnSessionRebalanced(e serve.MigrationEvent) { p.inner.OnSessionRebalanced(e) }

var _ serve.Sink = (*probeSink)(nil)
