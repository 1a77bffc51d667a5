package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tenancy"
)

// churn_overload parameters. FROZEN: tuned once (see churnBlock) and never
// touched again.
const (
	churnShards     = 2
	churnShardCores = 8
	churnClips      = 16
	churnFrames     = 3 * gopSize // every session is a first, a second and a last GOP
	churnInitial    = 3           // sessions each shard starts with
	// churnSessionsPerSec sizes the run: sessions offered per second of
	// nominal measured window.
	churnSessionsPerSec = 29.0
)

// churnBlock is the arrival pattern of 32 consecutive rounds of one shard:
// how many sessions arrive in each round — a burst of 4 and twelve single
// arrivals, 16 sessions per 32 rounds. That is more than an 8-core shard
// completes at full quality (two GOPs in five are served on a ladder rung
// above 0) and about three quarters of what it completes with the ladder's
// help, so the ladder works every round and only a session in a hundred
// waits out its eight rounds. The seed shuffles the order inside each block
// and never the multiset, so every seed offers the same load and only its
// timing differs.
//
// Why not heavier: an admission ladder under overload is chaotic — move
// one arrival by a round and a different session times out — so the
// seed-to-seed spread of every count metric grows with the share of
// sessions dropped. At 23 per 32 rounds with a burst of 6 (served_share
// 0.94) ten seeds spread served_share by 2.6% and full_quality_share by
// 10%, on identical content; at this load by 0.4% and 4%. Lighter loads
// stop helping: what is left times out behind its tenant's core share, not
// behind the queue.
var churnBlock = [32]int{
	4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
}

// churnTenantBlock is the tenant mix of 20 consecutive arrivals of one
// shard — 12 batch, 6 clinic, 2 er — shuffled by the seed the same way.
var churnTenantBlock = [20]string{
	"batch", "batch", "batch", "batch", "batch", "batch", "batch", "batch", "batch", "batch", "batch", "batch",
	"clinic", "clinic", "clinic", "clinic", "clinic", "clinic",
	"er", "er",
}

// The three tenants of churn_overload. No token-bucket rates: they read
// the wall clock, and every serving decision here must repeat exactly.
var churnTenants = []tenancy.Tenant{
	{ID: "batch", Weight: 3},
	{ID: "clinic", Weight: 1},
	{ID: "er", Weight: 1, Priority: 9},
}

// arrival is one session of the churn schedule: which clip it plays from
// which position of its cycle, and for whom.
type arrival struct {
	clip   int
	start  int
	tenant string
	keep   bool // keeps its bitstreams for the correctness gate to decode
}

// rng is SplitMix64: the benchmark's only randomness, so schedules do not
// change with the Go release.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG starts the generator of one seeded decision stream of a run.
func newRNG(seed int64, stream uint64) *rng {
	return &rng{state: uint64(seed)*0x9e3779b97f4a7c15 + stream*0x632be59bd9b4e019 + 1}
}

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	shuffle(r, p)
	return p
}

// shuffle permutes xs in place (Fisher–Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// deck deals the elements of a fixed multiset in seeded order, reshuffling
// a fresh copy whenever it runs out.
type deck[T any] struct {
	r     *rng
	cards []T
	left  []T
}

func (d *deck[T]) deal() T {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.cards...)
		shuffle(d.r, d.left)
	}
	c := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return c
}

// churnSchedule draws one shard's arrivals: schedule[r] is submitted so
// that it first competes in the shard's round r. The schedule is indexed by
// the shard's own round number — the service clock — never by wall time,
// so arrivals do not slow down when the platform saturates and the two
// shards' histories do not depend on how their threads interleave.
func churnSchedule(seed int64, shard, sessions int, clips []int, period int) [][]arrival {
	r := newRNG(seed, uint64(shard))
	counts := &deck[int]{r: r, cards: churnBlock[:]}
	tenants := &deck[string]{r: r, cards: churnTenantBlock[:]}
	clipDeck := &deck[int]{r: r, cards: clips}
	var sched [][]arrival
	left := sessions
	for round := 0; left > 0; round++ {
		n := churnInitial
		if round > 0 {
			n = counts.deal()
		}
		n = min(n, left)
		batch := make([]arrival, n)
		for i := range batch {
			batch[i] = arrival{clip: clipDeck.deal(), start: r.intn(period), tenant: tenants.deal()}
			batch[i].keep = round == 0 && i < keptSessions/churnShards
		}
		sched = append(sched, batch)
		left -= n
	}
	return sched
}

// churnShard is one shard's position in its schedule.
type churnShard struct {
	sched [][]arrival
	next  int // first schedule entry not yet submitted
}

// runChurn serves a seeded open-loop arrival process on a two-shard fleet
// with the admission ladder, calibration, three tenants and three sinks —
// every control-plane layer doing the most work it ever does.
func runChurn(p *pass) error {
	reg, err := p.alloc.registry()
	if err != nil {
		return err
	}
	platforms := make([]*mpsoc.Platform, churnShards)
	unitOfLevels := make(map[*mpsoc.FreqLevel]int)
	for i := range platforms {
		platforms[i] = mpsoc.XeonE5_2667V4()
		platforms[i].Cores = churnShardCores
		unitOfLevels[&platforms[i].Levels[0]] = i
	}
	// The allocator sees the shard's platform, or a per-tenant copy of it
	// that shares the frequency table: that table's address names the unit.
	p.alloc.unitOf = func(in sched.Input) int {
		if in.Platform != nil && len(in.Platform.Levels) > 0 {
			if u, ok := unitOfLevels[&in.Platform.Levels[0]]; ok {
				return u
			}
		}
		return -1
	}

	ring := serve.NewRingSink(64)
	jsonl := serve.NewBufferedJSONLSink(io.Discard, 1024, serve.JSONLDrop)
	defer jsonl.Close()
	msink := metrics.NewSink(metrics.SinkConfig{})
	tenants := tenancy.NewRegistry(churnTenants...)

	st := make([]churnShard, churnShards)
	var mu sync.Mutex // guards exhausted; each churnShard belongs to its shard's goroutine
	exhausted := 0
	var fleet *serve.Fleet
	var submitErr error
	cfg := sessionConfig(core.ModeProposed, true)
	labels := make([]string, churnClips)

	submit := func(shard int, batch []arrival) {
		for _, a := range batch {
			src := p.source(p.clips[a.clip], a.start, churnFrames, labels[a.clip])
			scfg := cfg
			scfg.KeepBitstreams = a.keep
			if err := p.submit(fleet, 0, src, scfg, a.tenant, 0); err != nil {
				mu.Lock()
				submitErr = errors.Join(submitErr, err)
				mu.Unlock()
			}
		}
	}
	// advance submits the shard's next schedule entry; when the shard has
	// nothing left queued it skips the schedule's empty rounds (the service
	// clock jumps: an idle shard settles no round, so nothing would ever
	// call the hook again).
	advance := func(shard int, idle bool) {
		s := &st[shard]
		if s.next >= len(s.sched) {
			return
		}
		for idle && s.next < len(s.sched)-1 && len(s.sched[s.next]) == 0 {
			s.next++
		}
		submit(shard, s.sched[s.next])
		s.next++
		if s.next == len(s.sched) {
			mu.Lock()
			exhausted++
			all := exhausted == churnShards
			mu.Unlock()
			if all {
				fleet.Close()
			}
		}
	}

	fleet, err = serve.New(
		serve.WithPlatforms(platforms...),
		serve.WithFPS(frameFPS),
		serve.WithRegistry(reg),
		serve.WithAllocator(sched.NameContentAware),
		serve.WithAdmission(core.AdmissionConfig{Enabled: true, MaxQueueRounds: 8, RecoverAfterRounds: 2}),
		serve.WithCalibration(core.CalibrationConfig{Enabled: true}),
		serve.WithTimeScale(modelTimeScale),
		serve.WithTenancy(tenants),
		serve.WithSink(p.probe("serve.sink.ring", ring, 0, true)),
		serve.WithMetrics(p.probe("serve.sink.jsonl", jsonl, 0, false)),
		serve.WithMetrics(p.probe("metrics.sink", msink, 0, false)),
		serve.WithRoundHook(func(shard int, out *core.GOPOutcome) {
			p.rec.onRound(shard, out, func() { advance(shard, len(out.Ladder) == 0) })
		}),
	)
	if err != nil {
		return err
	}

	// Each clip's class label is chosen so that its consistent-hash home is
	// the shard the clip is assigned to: a class is only ever submitted to
	// its home shard, from that shard's own hook.
	shardClips := make([][]int, churnShards)
	for i := 0; i < churnClips; i++ {
		shard := (i / len(clipClasses)) % churnShards
		labels[i] = homedLabel(p.clips[i].cfg.Class.String(), func(l string) bool { return fleet.HomeShard(l) == shard })
		shardClips[shard] = append(shardClips[shard], i)
	}
	store, err := seedLUTs(p.clips[:churnClips], labels, cfg)
	if err != nil {
		return err
	}
	fleet.MergeLUTs(store)

	per := p.size.sessions / churnShards
	for s := range st {
		st[s].sched = churnSchedule(p.seed, s, per, shardClips[s], p.clips[0].period())
		advance(s, false)
	}

	var rep *serve.Report
	err = p.serve(func(ctx context.Context) error {
		var err error
		rep, err = fleet.Run(ctx)
		return err
	})
	if err != nil {
		return err
	}
	if submitErr != nil {
		return fmt.Errorf("churn submit: %w", submitErr)
	}
	if rep.Failed != 0 || rep.Submitted != per*churnShards {
		return fmt.Errorf("churn fleet: %d submitted of %d, %d failed", rep.Submitted, per*churnShards, rep.Failed)
	}
	p.ext.jsonl = jsonl
	p.ext.metricsSink = msink
	p.ext.tenants = tenants
	p.ext.fleets = append(p.ext.fleets, fleet)
	return nil
}
