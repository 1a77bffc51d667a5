package metrics

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// SinkConfig configures the exporter sink.
type SinkConfig struct {
	// Cost prices the energy/deadline ledger into the dollar series. The
	// zero model exports zero dollars.
	Cost CostModel
	// Agent, when non-empty, adds a constant "agent" label with this
	// value to every series the sink exports — the distributed mode's
	// per-node dimension, so one scraper can aggregate a whole fleet of
	// agent processes without their shard-indexed series colliding.
	Agent string
}

const (
	// maxClasses bounds the workload-class label: the first maxClasses
	// distinct classes keep their names, later ones fold into "other" —
	// classes come from user input, and an unbounded label is how a
	// metrics endpoint becomes a memory leak.
	maxClasses = 32
	// maxTenants bounds the tenant label the same way. The default
	// tenant exports as "default".
	maxTenants = 32
	// qoeAlpha is the EWMA weight of the newest GOP's QoE sample in the
	// per-(shard, class) qoe_score gauge.
	qoeAlpha = 0.25
)

// Sink implements serve.Sink, translating the fleet's event stream into
// bounded-cardinality registry series: per-shard load and platform
// ledgers, per-class throughput and quality, admission-ladder depth,
// placement/migration/rebalance/resize rates, estimation error, and the
// cost model's dollar and QoE series. Wire it into a fleet with
// serve.WithMetrics and serve the scrape endpoint with Handler.
//
// Label discipline (the tentpole rule): every label set is fleet-bounded
// — shard index, folded workload class, fixed rung and state names.
// Session ids never become labels.
//
// The On* methods rely on the fleet's serialized sink dispatch and keep
// no locks of their own; the registry is internally synchronized, so
// scrapes may race delivery freely.
type Sink struct {
	serve.NopSink // session-scoped events we consume are overridden below

	reg  *Registry
	cost CostModel

	// classOf maps (shard, session) → folded class label; classes is the
	// bounded set of label values handed out so far. doomed marks
	// terminal sessions for pruning after their final round's metrics —
	// the terminal state change arrives *before* the session's last
	// OnGOP (the Sink contract), so pruning on sight would misattribute
	// the final GOP.
	classOf map[[2]int]string
	classes map[string]bool
	doomed  map[[2]int]bool
	// tenantOf and tenants mirror classOf/classes for the tenant label
	// (learned from placement events, moved by migrations, pruned with
	// doomed). tenantSeen remembers which tenant labels each shard's
	// cores gauge has exported, so a tenant that leaves a shard reads 0
	// instead of its stale last grant.
	tenantOf   map[[2]int]string
	tenants    map[string]bool
	tenantSeen map[string]map[string]bool
	// qoe holds the per-(shard, class) EWMA state behind the gauge.
	qoe map[[2]string]float64
	// prevCost tracks each shard's last priced cumulative cost, so the
	// per-class attribution distributes exact per-round deltas.
	prevCost map[int]float64

	rounds        counter
	gops          counter
	frames        counter
	placements    counter
	migrations    counter
	rebalances    counter
	shardsAdded   counter
	shardsRemoved counter
	states        counter
	energy        counter
	misses        counter
	costDollars   counter
	classCost     counter
	tenantGops    counter
	tenantCost    counter
	preemptions   counter

	sessions    gauge
	demand      gauge
	capacity    gauge
	util        gauge
	coresUsed   gauge
	avgPower    gauge
	peakPower   gauge
	ladder      gauge
	liveNow     gauge
	qoeGauge    gauge
	tenantCores gauge

	estErr histogram
	psnr   histogram
}

// NewSink builds the exporter sink and registers its metric families.
func NewSink(cfg SinkConfig) *Sink {
	reg := newRegistry(cfg.Agent)
	s := &Sink{
		reg:        reg,
		cost:       cfg.Cost,
		classOf:    make(map[[2]int]string),
		classes:    make(map[string]bool),
		doomed:     make(map[[2]int]bool),
		tenantOf:   make(map[[2]int]string),
		tenants:    make(map[string]bool),
		tenantSeen: make(map[string]map[string]bool),
		qoe:        make(map[[2]string]float64),
		prevCost:   make(map[int]float64),
	}
	s.rounds = reg.counter("repro_rounds_total", "Settled serving rounds per shard.", "shard")
	s.gops = reg.counter("repro_gops_total", "GOPs served, by shard and workload class.", "shard", "class")
	s.frames = reg.counter("repro_frames_total", "Frames encoded, by shard and workload class.", "shard", "class")
	s.placements = reg.counter("repro_placements_total", "Session placements routed to each shard.", "shard")
	s.migrations = reg.counter("repro_migrations_total", "Session migration hops from resize drains.")
	s.rebalances = reg.counter("repro_rebalances_total", "Session hops shed by hot-shard rebalancing.")
	s.shardsAdded = reg.counter("repro_shards_added_total", "Shards added by resizes.")
	s.shardsRemoved = reg.counter("repro_shards_removed_total", "Shards removed by resizes.")
	s.states = reg.counter("repro_session_states_total", "Session lifecycle transitions, by shard and state.", "shard", "state")
	s.energy = reg.counter("repro_energy_joules_total", "Cumulative platform energy per shard (exact mpsoc ledger).", "shard")
	s.misses = reg.counter("repro_deadline_misses_total", "Cumulative frame-deadline misses per shard (exact mpsoc ledger).", "shard")
	s.costDollars = reg.counter("repro_cost_dollars_total", "Cumulative operating cost per shard under the cost model.", "shard")
	s.classCost = reg.counter("repro_class_cost_dollars_total", "Operating cost attributed to workload classes by modelled-work share.", "class")
	s.tenantGops = reg.counter("repro_tenant_gops_total", "GOPs served, by tenant.", "tenant")
	s.tenantCost = reg.counter("repro_tenant_cost_dollars_total", "Operating cost attributed to tenants by modelled-work share.", "tenant")
	s.preemptions = reg.counter("repro_preemptions_total", "Ladder pushdowns inflicted on lower-priority sessions to seat higher-priority arrivals, by shard and victim tenant.", "shard", "tenant")

	s.sessions = reg.gauge("repro_sessions", "Live sessions per shard.", "shard")
	s.demand = reg.gauge("repro_demand_cores", "Summed core demand of live sessions per shard.", "shard")
	s.capacity = reg.gauge("repro_capacity_cores", "Platform core capacity per shard.", "shard")
	s.util = reg.gauge("repro_utilization", "Demand over capacity per shard.", "shard")
	s.coresUsed = reg.gauge("repro_cores_used", "Cores the last settled round's allocation used.", "shard")
	s.avgPower = reg.gauge("repro_avg_power_watts", "Lifetime average platform power per shard.", "shard")
	s.peakPower = reg.gauge("repro_peak_power_watts", "Highest per-slot average power seen per shard.", "shard")
	s.ladder = reg.gauge("repro_ladder_sessions", "Live sessions per admission-ladder rung, as of each shard's last round.", "shard", "rung")
	s.liveNow = reg.gauge("repro_live_shards", "Routable shards after the last membership change.")
	s.qoeGauge = reg.gauge("repro_qoe_score", "EWMA QoE score per shard and class (1 = transparent full-rate service).", "shard", "class")
	s.tenantCores = reg.gauge("repro_tenant_cores", "Cores granted to each tenant by the shard's last settled round (weighted apportionment).", "shard", "tenant")

	s.estErr = reg.histogram("repro_estimate_error",
		"Per-round mean relative stage-D1 estimation error.",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2}, "shard")
	s.psnr = reg.histogram("repro_gop_psnr_db",
		"Mean GOP PSNR by shard and workload class.",
		[]float64{25, 30, 32, 34, 36, 38, 40, 42, 45}, "shard", "class")
	return s
}

// Registry exposes the sink's registry, for scraping programmatically.
func (s *Sink) Registry() *Registry { return s.reg }

// Handler serves the registry as a Prometheus scrape endpoint.
func (s *Sink) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := s.reg.WritePrometheus(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, b.String())
	})
}

// classLabel folds a raw workload class into the bounded label set.
func (s *Sink) classLabel(class string) string {
	if s.classes[class] {
		return class
	}
	if len(s.classes) >= maxClasses {
		return "other"
	}
	s.classes[class] = true
	return class
}

// tenantLabel folds a raw tenant id into the bounded label set. The
// default tenant ("" on the wire) exports as "default".
func (s *Sink) tenantLabel(tenant string) string {
	if tenant == "" || tenant == "default" {
		return "default"
	}
	if s.tenants[tenant] {
		return tenant
	}
	if len(s.tenants) >= maxTenants {
		return "other"
	}
	s.tenants[tenant] = true
	return tenant
}

func shardLabel(shard int) string { return strconv.Itoa(shard) }

// rungName classifies a session's ladder position into the fixed rung
// label set. The deepest degradation in force wins: rate halving is the
// ladder's last rung, QP offsets its middle rungs, the tiling fallback
// its first.
func rungName(ls core.LadderState) string {
	switch {
	case ls.RateHalved:
		return "rate-halved"
	case ls.QPOffset > 0:
		return "qp-offset"
	case ls.Rung > 0:
		return "degraded-tiling"
	}
	return "none"
}

var rungNames = []string{"none", "degraded-tiling", "qp-offset", "rate-halved"}

func (s *Sink) OnSessionPlaced(e serve.PlacementEvent) {
	shard := shardLabel(e.Shard)
	s.placements.add(1, shard)
	key := [2]int{e.Shard, e.Session}
	s.classOf[key] = s.classLabel(e.Class)
	s.tenantOf[key] = s.tenantLabel(e.Tenant)
}

func (s *Sink) OnSessionStateChange(e serve.SessionEvent) {
	s.states.add(1, shardLabel(e.Shard), e.State.String())
	if e.State != core.StateQueued {
		// Terminal — but the session's final OnGOP is still to come this
		// round; prune after the round's metrics instead of now.
		s.doomed[[2]int{e.Shard, e.Session}] = true
	}
}

func (s *Sink) OnGOP(e serve.GOPEvent) {
	shard := shardLabel(e.Shard)
	class := s.classOf[[2]int{e.Shard, e.Session}]
	if class == "" {
		class = "other"
	}
	s.gops.add(1, shard, class)
	s.frames.add(float64(len(e.GOP.Frames)), shard, class)
	s.psnr.observe(e.GOP.MeanPSNR, shard, class)
	s.tenantGops.add(1, s.sessionTenant(e.Shard, e.Session))
}

// sessionTenant looks up a session's folded tenant label, falling back
// to "other" for sessions the sink never saw placed (the same honesty
// rule as the class label).
func (s *Sink) sessionTenant(shard, session int) string {
	if t := s.tenantOf[[2]int{shard, session}]; t != "" {
		return t
	}
	return "other"
}

func (s *Sink) OnRoundMetrics(e serve.RoundEvent) {
	shard := shardLabel(e.Shard)
	out := e.Outcome
	s.rounds.add(1, shard)

	// The cumulative platform ledger, set (not re-accumulated) so the
	// exported totals are bit-exact with core's mpsoc.Totals.
	t := out.Totals
	s.energy.set(t.EnergyJ, shard)
	s.misses.set(float64(t.DeadlineMisses), shard)
	s.avgPower.set(t.AvgPowerW(), shard)
	s.peakPower.set(t.PeakPowerW, shard)
	costNow := s.cost.cost(t)
	s.costDollars.set(costNow, shard)

	// Load as of the settlement.
	s.sessions.set(float64(e.Load.Sessions), shard)
	s.demand.set(float64(e.Load.DemandCores), shard)
	s.capacity.set(float64(e.Load.CapacityCores), shard)
	s.util.set(e.Load.Util, shard)
	if out.Allocation != nil {
		s.coresUsed.set(float64(out.Allocation.CoresUsed), shard)
	}
	if out.EstimateTiles > 0 {
		s.estErr.observe(out.EstimateErr, shard)
	}

	// Admission-ladder depth: reset every rung each round so recovered
	// sessions leave their old rung's count.
	depth := make(map[string]int, len(rungNames))
	for _, ls := range out.Ladder {
		depth[rungName(ls)]++
	}
	for _, rung := range rungNames {
		s.ladder.set(float64(depth[rung]), shard, rung)
	}

	// Per-tenant core grants: zero every label this shard ever exported
	// first, so a tenant that left the shard reads 0 instead of its
	// stale last grant.
	seen := s.tenantSeen[shard]
	for t := range seen {
		s.tenantCores.set(0, shard, t)
	}
	for t, c := range out.TenantCores {
		label := s.tenantLabel(t)
		if seen == nil {
			seen = make(map[string]bool)
			s.tenantSeen[shard] = seen
		}
		seen[label] = true
		s.tenantCores.set(float64(c), shard, label)
	}

	// Priority preemptions, attributed to the victim's tenant.
	for _, id := range out.Preempted {
		s.preemptions.add(1, shard, s.sessionTenant(e.Shard, id))
	}

	// Per-GOP QoE and the per-class attribution of this round's cost
	// delta, both in ascending session id so EWMA state is reproducible.
	ids := make([]int, 0, len(out.GOPs))
	var totalWork time.Duration // an integer sum: exact in any map order
	for id, gop := range out.GOPs {
		ids = append(ids, id)
		totalWork += gop.Work
	}
	sort.Ints(ids)
	costDelta := costNow - s.prevCost[e.Shard]
	s.prevCost[e.Shard] = costNow
	roundMisses := 0
	if out.Energy != nil {
		roundMisses = out.Energy.DeadlineMisses
	}
	for _, id := range ids {
		gop := out.GOPs[id]
		class := s.classOf[[2]int{e.Shard, id}]
		if class == "" {
			class = "other"
		}
		// Cost attribution: each GOP's modelled work, the currency the
		// allocator priced the round in, is the share its class and tenant
		// pay. A round with no modelled work splits evenly.
		share := 1.0 / float64(len(ids))
		if totalWork > 0 {
			share = float64(gop.Work) / float64(totalWork)
		}
		s.classCost.add(costDelta*share, class)
		s.tenantCost.add(costDelta*share, s.sessionTenant(e.Shard, id))

		ls := out.Ladder[id]
		score := qoeScore(qoeInput{
			PSNRdB:         gop.MeanPSNR,
			QPOffset:       ls.QPOffset,
			DegradedTiling: ls.Rung > 0 && ls.QPOffset == 0 && !ls.RateHalved,
			RateHalved:     ls.RateHalved,
			DeadlineMisses: roundMisses,
		})
		key := [2]string{shard, class}
		prev, seen := s.qoe[key]
		if !seen {
			prev = score
		}
		ewma := qoeAlpha*score + (1-qoeAlpha)*prev
		s.qoe[key] = ewma
		s.qoeGauge.set(ewma, shard, class)
	}

	// This round's terminal sessions have had their final GOPs
	// attributed; drop their class entries now.
	for k := range s.doomed {
		if k[0] == e.Shard {
			delete(s.classOf, k)
			delete(s.tenantOf, k)
			delete(s.doomed, k)
		}
	}
}

func (s *Sink) OnShardAdded(e serve.ShardEvent) {
	s.shardsAdded.add(1)
	s.liveNow.set(float64(e.Live))
}

func (s *Sink) OnShardRemoved(e serve.ShardEvent) {
	s.shardsRemoved.add(1)
	s.liveNow.set(float64(e.Live))
}

func (s *Sink) OnSessionMigrated(e serve.MigrationEvent) {
	s.migrations.add(1)
	s.moveClass(e)
}

func (s *Sink) OnSessionRebalanced(e serve.MigrationEvent) {
	s.rebalances.add(1)
	s.moveClass(e)
}

// moveClass rebinds a migrated session's class and tenant to its new
// (shard, id).
func (s *Sink) moveClass(e serve.MigrationEvent) {
	from := [2]int{e.FromShard, e.FromSession}
	delete(s.classOf, from)
	delete(s.tenantOf, from)
	delete(s.doomed, from)
	to := [2]int{e.ToShard, e.ToSession}
	s.classOf[to] = s.classLabel(e.Class)
	s.tenantOf[to] = s.tenantLabel(e.Tenant)
}

var _ serve.Sink = (*Sink)(nil)
