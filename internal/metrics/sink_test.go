package metrics

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/medgen"
	"repro/internal/mpsoc"
	"repro/internal/serve"
)

// testGens holds one generator per study the package's tests play, so
// every session and routing label of a study shares its frames.
var testGens sync.Map // medgen.Config → *medgen.Generator

// labelled plays a shared generator under an arbitrary workload class.
type labelled struct {
	*medgen.Generator
	class string
}

func (l labelled) Class() string { return l.class }

// testSource plays a deterministic synthetic study under an arbitrary
// workload-class name (the fleet's routing key).
func testSource(t testing.TB, class string, seed int64, frames int) core.FrameSource {
	t.Helper()
	cfg := medgen.Default()
	cfg.Width, cfg.Height = 256, 192
	cfg.Class = medgen.Class(int(seed) % medgen.NumClasses)
	cfg.Frames = frames
	cfg.Seed = seed
	g, ok := testGens.Load(cfg)
	if !ok {
		fresh, err := medgen.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, _ = testGens.LoadOrStore(cfg, fresh)
	}
	return labelled{g.(*medgen.Generator), class}
}

func testSessionConfig() core.SessionConfig {
	cfg := core.DefaultSessionConfig()
	cfg.Codec.GOPSize = 4
	cfg.Codec.IntraPeriod = 8
	cfg.Retile.MinTileW, cfg.Retile.MinTileH = 48, 48
	return cfg
}

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition parses Prometheus text format (enough of it for these
// tests: no escaped quotes inside the label values we emit here).
func parseExposition(t *testing.T, text string) []sample {
	t.Helper()
	var out []sample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		s := sample{labels: map[string]string{}}
		nameAndLabels := fields[0]
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			s.name = nameAndLabels[:i]
			body := strings.TrimSuffix(nameAndLabels[i+1:], "}")
			for _, pair := range strings.Split(body, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
				s.labels[k] = strings.Trim(v, `"`)
			}
		} else {
			s.name = nameAndLabels
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out
}

// find returns the single sample matching name and labels (subset
// match), failing the test when absent or ambiguous.
func find(t *testing.T, samples []sample, name string, labels map[string]string) float64 {
	t.Helper()
	var hits []sample
outer:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for k, v := range labels {
			if s.labels[k] != v {
				continue outer
			}
		}
		hits = append(hits, s)
	}
	if len(hits) != 1 {
		t.Fatalf("%d samples match %s%v", len(hits), name, labels)
	}
	return hits[0].value
}

// sum adds every sample of name matching the label subset.
func sum(samples []sample, name string, labels map[string]string) float64 {
	total := 0.0
outer:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for k, v := range labels {
			if s.labels[k] != v {
				continue outer
			}
		}
		total += s.value
	}
	return total
}

// TestExporterReconcilesWithFleet is the exporter's acceptance test: a
// 3-shard fleet under churn — arrivals mid-run, a grow-and-shrink resize
// with session migration — serves /metrics throughout; the endpoint must
// answer with well-formed finite text mid-churn, and the final scrape's
// energy, deadline-miss, cost, round, GOP and migration series must
// equal the RingSink-derived (mpsoc.Totals-backed) values exactly — not
// approximately.
func TestExporterReconcilesWithFleet(t *testing.T) {
	cost := CostModel{DollarsPerJoule: 0.0005, DollarsPerDeadlineMiss: 0.01}
	sink := NewSink(SinkConfig{Cost: cost})
	ring := serve.NewRingSink(4096)
	gate := &roundGate{}
	// The autoscaler grows the fleet to 4 shards after two rounds and then
	// shrinks it back to 3; the shrink waits in OnResize until the test has
	// landed sessions on the fourth shard, so the drain must migrate them.
	// No utilization reaches TargetUtil, so the load policy never resizes.
	shrinking, release := make(chan struct{}), make(chan struct{})
	removals := shardRemovals{ch: make(chan int, 1)}
	f, err := serve.New(
		serve.WithShards(3),
		serve.WithSink(ring),
		serve.WithMetrics(sink),
		serve.WithMetrics(removals),
		serve.WithRoundHook(gate.hook),
		serve.WithAutoscale(serve.AutoscaleConfig{
			TargetUtil: math.MaxFloat64,
			Schedule:   []serve.ScheduledResize{{AfterRounds: 2, Shards: 4}, {AfterRounds: 3, Shards: 3}},
			OnResize: func(from, to int, _ string) {
				if to < from {
					close(shrinking)
					<-release
				}
			},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()

	// One session homed on each shard, then churn: more arrivals from a
	// round hook would race this test's assertions, so arrivals come from
	// the main goroutine between observable phases instead.
	classes := homedClasses(t, f, 3)
	for i, class := range classes {
		if _, err := f.SubmitWith(serve.SubmitRequest{Source: testSource(t, class, int64(i+1), 16), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := f.Run(context.Background())
		runDone <- err
	}()

	// Wait for live rounds, then scrape mid-churn.
	gate.wait(t, func() bool { return ring.Report().Rounds >= 2 })
	mid := scrape(t, srv.URL)
	midSamples := parseExposition(t, mid)
	if len(midSamples) == 0 {
		t.Fatal("mid-churn scrape is empty")
	}
	if v := sum(midSamples, "repro_energy_joules_total", nil); !(v > 0) {
		t.Fatalf("mid-churn energy total %v, want > 0 and finite", v)
	}

	// The grow has landed once the shrink is due: land sessions on the new
	// shard, then let the shrink run — forcing migrations the exporter
	// must count.
	select {
	case <-shrinking:
	case <-time.After(30 * time.Second):
		t.Fatal("the scheduled shrink never came due")
	}
	grown := homedClasses(t, f, 4)
	for i, class := range grown[3:] {
		if _, err := f.SubmitWith(serve.SubmitRequest{Source: testSource(t, class, int64(10+i), 32), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 3 settled a round with its sessions (8 GOPs each) still live.
	gate.wait(t, func() bool {
		shards := ring.Report().Shards
		return len(shards) > 3 && shards[3].Report.Rounds > 0
	})
	close(release)
	select {
	case <-removals.ch:
	case <-time.After(30 * time.Second):
		t.Fatal("the scheduled shrink removed no shard")
	}
	f.Close()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	if ring.Migrations() == 0 {
		t.Fatal("churn produced no migrations — the reconciliation below would prove nothing")
	}

	// Final reconciliation: exact equality per shard against the
	// RingSink's per-shard sub-reports.
	samples := parseExposition(t, scrape(t, srv.URL))
	for shard, sr := range ring.Report().Shards {
		rep := sr.Report
		if rep.Rounds == 0 {
			continue // a shard that never settled a round exports nothing
		}
		lbl := map[string]string{"shard": strconv.Itoa(shard)}
		if got := find(t, samples, "repro_energy_joules_total", lbl); got != rep.Energy.EnergyJ {
			t.Errorf("shard %d energy: exported %v, ledger %v", shard, got, rep.Energy.EnergyJ)
		}
		if got := find(t, samples, "repro_deadline_misses_total", lbl); got != float64(rep.Energy.DeadlineMisses) {
			t.Errorf("shard %d misses: exported %v, ledger %d", shard, got, rep.Energy.DeadlineMisses)
		}
		if got, want := find(t, samples, "repro_cost_dollars_total", lbl), cost.cost(rep.Energy); got != want {
			t.Errorf("shard %d cost: exported %v, ledger-derived %v", shard, got, want)
		}
		if got := find(t, samples, "repro_rounds_total", lbl); got != float64(rep.Rounds) {
			t.Errorf("shard %d rounds: exported %v, ring %d", shard, got, rep.Rounds)
		}
		if got := sum(samples, "repro_gops_total", lbl); got != float64(rep.GOPReports) {
			t.Errorf("shard %d gops: exported %v, ring %d", shard, got, rep.GOPReports)
		}
		if got := sum(samples, "repro_frames_total", lbl); got != float64(rep.FramesEncoded) {
			t.Errorf("shard %d frames: exported %v, ring %d", shard, got, rep.FramesEncoded)
		}
	}
	if got := sum(samples, "repro_migrations_total", nil); got != float64(ring.Migrations()) {
		t.Errorf("migrations: exported %v, ring %d", got, ring.Migrations())
	}
	if got := sum(samples, "repro_rebalances_total", nil); got != float64(ring.Rebalances()) {
		t.Errorf("rebalances: exported %v, ring %d", got, ring.Rebalances())
	}
	added, removed := ring.Resizes()
	if got := sum(samples, "repro_shards_added_total", nil); got != float64(added) {
		t.Errorf("shards added: exported %v, ring %d", got, added)
	}
	if got := sum(samples, "repro_shards_removed_total", nil); got != float64(removed) {
		t.Errorf("shards removed: exported %v, ring %d", got, removed)
	}
	// One placement per successful SubmitWith, and no submission was refused.
	if got, want := sum(samples, "repro_placements_total", nil), ring.Report().Submitted; got != float64(want) {
		t.Errorf("placements: exported %v, ring saw %d unique sessions", got, want)
	}
	for _, s := range samples {
		if s.name == "repro_qoe_score" && (s.value < 0 || s.value > 1) {
			t.Errorf("qoe score %v outside [0, 1] for %v", s.value, s.labels)
		}
	}
	if got := sum(samples, "repro_metrics_dropped_series_total", nil); got != 0 {
		t.Errorf("registry dropped %v series under a normal fleet run", got)
	}
}

// TestExporterBoundsClassCardinality: a flood of distinct workload
// classes folds into "other" past maxClasses — session-driven input can
// never grow the class label set without bound.
func TestExporterBoundsClassCardinality(t *testing.T) {
	sink := NewSink(SinkConfig{})
	ring := serve.NewRingSink(64)
	f, err := serve.New(serve.WithShards(1), serve.WithSink(ring), serve.WithMetrics(sink))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxClasses+3; i++ {
		if _, err := f.SubmitWith(serve.SubmitRequest{Source: testSource(t, fmt.Sprintf("flood-%d", i), int64(i+1), 4), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sink.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	classes := map[string]bool{}
	for _, s := range parseExposition(t, b.String()) {
		if c, ok := s.labels["class"]; ok {
			classes[c] = true
		}
	}
	if len(classes) > maxClasses+1 { // the named ones + "other"
		t.Fatalf("class label grew to %d values under a cap of %d: %v", len(classes), maxClasses, classes)
	}
	if !classes["other"] {
		t.Fatalf("flood classes were not folded into \"other\": %v", classes)
	}
	if got, want := sum(parseExposition(t, b.String()), "repro_gops_total", nil), float64(ring.Report().GOPReports); got != want {
		t.Fatalf("folding lost GOPs: exported %v, ring %v", got, want)
	}
}

// homedClasses finds one class name homed on each of the fleet's n live
// shards.
func homedClasses(t *testing.T, f *serve.Fleet, n int) []string {
	t.Helper()
	out := make([]string, n)
	found := 0
	for i := 0; found < n && i < 10000; i++ {
		class := fmt.Sprintf("class-%d", i)
		home := f.HomeShard(class)
		if home >= 0 && home < n && out[home] == "" {
			out[home] = class
			found++
		}
	}
	if found != n {
		t.Fatalf("no class homed on every one of %d shards: %v", n, out)
	}
	return out
}

// shardRemovals signals the first shard removal the fleet delivers.
type shardRemovals struct {
	serve.NopSink
	ch chan int
}

func (r shardRemovals) OnShardRemoved(e serve.ShardEvent) {
	select {
	case r.ch <- e.Shard:
	default:
	}
}

// roundGate waits for a fleet state without polling: installed with
// serve.WithRoundHook, it checks the armed condition after every settled
// round, once the sinks have seen the round, and closes the waiter's
// channel the first time the condition holds.
type roundGate struct {
	mu   sync.Mutex // the hook runs on every shard's serving goroutine
	cond func() bool
	done chan struct{}
}

func (g *roundGate) hook(int, *core.GOPOutcome) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cond != nil && g.cond() {
		close(g.done)
		g.cond = nil
	}
}

// wait arms cond and blocks until it holds, failing after 30 s. A condition
// that already holds returns at once: the round that made it true may have
// been the last.
func (g *roundGate) wait(t *testing.T, cond func() bool) {
	t.Helper()
	done := make(chan struct{})
	g.mu.Lock()
	if cond() {
		g.mu.Unlock()
		return
	}
	g.cond, g.done = cond, done
	g.mu.Unlock()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("condition not reached in 30s")
	}
}

// scrape GETs the endpoint and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExporterAgentLabel: a sink configured with an agent identity
// stamps the constant "agent" label onto every series it exports, so a
// fleet of agent processes can share one scraper without collisions.
func TestExporterAgentLabel(t *testing.T) {
	sink := NewSink(SinkConfig{Agent: "agent-7"})
	fleet, err := serve.New(
		serve.WithShards(1),
		serve.WithMetrics(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.SubmitWith(serve.SubmitRequest{Source: testSource(t, "brain", 1, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	fleet.Close()
	if _, err := fleet.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := sink.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())
	labeled := 0
	for _, s := range samples {
		if s.name == "repro_metrics_dropped_series_total" {
			continue // the registry's own meta-series, not the sink's
		}
		if s.labels["agent"] != "agent-7" {
			t.Fatalf("series %s%v missing agent label", s.name, s.labels)
		}
		labeled++
	}
	if labeled == 0 {
		t.Fatal("no sink series exported")
	}
	if got := find(t, samples, "repro_rounds_total", map[string]string{"agent": "agent-7", "shard": "0"}); got < 1 {
		t.Fatalf("repro_rounds_total = %v, want >= 1", got)
	}
}

// TestExporterBoundsTenantCardinality: a flood of distinct tenant ids
// must not grow the tenant label without bound — ids past maxTenants
// fold into "other", and the fold loses no per-tenant GOP accounting.
func TestExporterBoundsTenantCardinality(t *testing.T) {
	sink := NewSink(SinkConfig{})
	ring := serve.NewRingSink(64)
	// Wide enough that every tenant's weighted core share seats its session.
	platform := mpsoc.XeonE5_2667V4()
	platform.Cores = 4 * (maxTenants + 3)
	f, err := serve.New(serve.WithPlatforms(platform), serve.WithSink(ring), serve.WithMetrics(sink))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTenants+3; i++ {
		if _, err := f.SubmitWith(serve.SubmitRequest{
			Source: testSource(t, "brain", int64(i+1), 4),
			Config: testSessionConfig(),
			Tenant: fmt.Sprintf("tenant-%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sink.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())
	tenants := map[string]bool{}
	for _, s := range samples {
		if s.name == "repro_tenant_gops_total" {
			tenants[s.labels["tenant"]] = true
		}
	}
	if len(tenants) > maxTenants+1 { // the named ones + "other"
		t.Fatalf("tenant label grew to %d values under a cap of %d: %v", len(tenants), maxTenants, tenants)
	}
	if !tenants["other"] {
		t.Fatalf("flood tenants were not folded into \"other\": %v", tenants)
	}
	if got, want := sum(samples, "repro_tenant_gops_total", nil), float64(ring.Report().GOPReports); got != want {
		t.Fatalf("folding lost per-tenant GOPs: exported %v, ring %v", got, want)
	}
}

// migrationLog keeps the migration events a fleet delivers.
type migrationLog struct {
	serve.NopSink
	events []serve.MigrationEvent
}

func (l *migrationLog) OnSessionMigrated(e serve.MigrationEvent) { l.events = append(l.events, e) }

// TestReimportKeepsTenantBilling is the regression test for the
// cross-process re-import dropping its tenant: a session checkpointed
// under tenant "clinic" on one server and adopted through Fleet.Import —
// the failover path, FromShard -1 — must arrive with its tenant on the
// migration event, so the exporter keeps billing its GOPs to "clinic"
// instead of rebinding the session to the default tenant.
func TestReimportKeepsTenantBilling(t *testing.T) {
	vc := medgen.Default()
	vc.Width, vc.Height = 256, 192
	vc.Frames = 12
	src, err := dist.NewMedgenSource(vc, "")
	if err != nil {
		t.Fatal(err)
	}
	donor, err := core.NewServer(core.ServerConfig{Platform: mpsoc.XeonE5_2667V4(), FPS: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Submit(src, testSessionConfig(), core.SubmitOptions{Tenant: "clinic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := donor.ServeGOP(); err != nil {
		t.Fatal(err)
	}
	wires, err := donor.CheckpointSessions()
	if err != nil || len(wires) != 1 {
		t.Fatalf("checkpoint: %d wires, %v", len(wires), err)
	}
	restored, err := wires[0].Restore(func(core.SourceSpec) (core.FrameSource, error) { return dist.NewMedgenSource(vc, "") })
	if err != nil {
		t.Fatal(err)
	}

	sink := NewSink(SinkConfig{})
	log := &migrationLog{}
	fleet, err := serve.New(serve.WithShards(1), serve.WithSink(log), serve.WithMetrics(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Import(restored); err != nil {
		t.Fatal(err)
	}
	fleet.Close()
	rep, err := fleet.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.GOPReports != 2 {
		t.Fatalf("report %+v, want the adopted session's remaining 2 GOPs served", rep)
	}

	if len(log.events) != 1 || log.events[0].FromShard != -1 || log.events[0].Tenant != "clinic" {
		t.Fatalf("migration events %+v, want one cross-process re-import carrying tenant clinic", log.events)
	}
	var buf strings.Builder
	if err := sink.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())
	if got := sum(samples, "repro_tenant_gops_total", map[string]string{"tenant": "clinic"}); got != 2 {
		t.Fatalf("repro_tenant_gops_total{tenant=clinic} = %v, want 2", got)
	}
	if got := sum(samples, "repro_tenant_gops_total", nil); got != 2 {
		t.Fatalf("repro_tenant_gops_total over all tenants = %v, want 2 — GOPs billed to the wrong tenant", got)
	}
}

// TestBillsAreSeedDeterministic: the class and tenant bills split each
// round's cost by modelled work, never by the host's stopwatch, so one
// seeded two-tenant, two-class fleet bills the same in every run, and each
// split adds up to the shards' cost.
func TestBillsAreSeedDeterministic(t *testing.T) {
	bills := []string{"repro_class_cost_dollars_total", "repro_tenant_cost_dollars_total"}
	serveOnce := func() string {
		sink := NewSink(SinkConfig{Cost: CostModel{DollarsPerJoule: 0.0005, DollarsPerDeadlineMiss: 0.01}})
		f, err := serve.New(serve.WithShards(1), serve.WithMetrics(sink))
		if err != nil {
			t.Fatal(err)
		}
		for i, sub := range []struct{ class, tenant string }{
			{"brain", "clinic"}, {"chest", "batch"}, {"chest", "clinic"}, {"brain", "batch"},
		} {
			if _, err := f.SubmitWith(serve.SubmitRequest{
				Source: testSource(t, sub.class, int64(i+1), 12),
				Config: testSessionConfig(),
				Tenant: sub.tenant,
			}); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		if _, err := f.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := sink.Registry().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// billLines keeps the exposition lines of the bill series, which
	// render shortest-round-trip floats: equal lines are equal bits.
	billLines := func(text string) string {
		var out []string
		for _, line := range strings.Split(text, "\n") {
			for _, name := range bills {
				if strings.HasPrefix(line, name+"{") {
					out = append(out, line)
				}
			}
		}
		return strings.Join(out, "\n")
	}

	first := serveOnce()
	if a, b := billLines(first), billLines(serveOnce()); a != b {
		t.Fatalf("one seed billed differently in two runs:\n%s\n--- vs ---\n%s", a, b)
	}
	samples := parseExposition(t, first)
	total := sum(samples, "repro_cost_dollars_total", nil)
	if !(total > 0) {
		t.Fatalf("repro_cost_dollars_total = %v, want > 0: the bills below would prove nothing", total)
	}
	for _, name := range bills {
		if got := sum(samples, name, nil); math.Abs(got-total) > 1e-9*total {
			t.Errorf("%s sums to %v, the shards' cost is %v", name, got, total)
		}
	}
	for _, payer := range []struct{ series, label, value string }{
		{bills[0], "class", "brain"}, {bills[0], "class", "chest"},
		{bills[1], "tenant", "clinic"}, {bills[1], "tenant", "batch"},
	} {
		if got := find(t, samples, payer.series, map[string]string{payer.label: payer.value}); !(got > 0) {
			t.Errorf("%s{%s=%q} = %v, want a share of the cost", payer.series, payer.label, payer.value, got)
		}
	}
}
