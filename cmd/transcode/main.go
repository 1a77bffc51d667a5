// Command transcode runs the full content-aware pipeline on one synthetic
// bio-medical video and prints per-GOP statistics: the tile structure from
// the content-aware re-tiler, per-tile texture/motion classes and QPs, and
// the frame-level rate/quality/time outcomes.
//
// With -users N (N > 1) it instead drives the fleet serving API
// (internal/serve): N sessions of mixed classes stream through -shards
// parallel core.Server shards behind the consistent-hash dispatcher, with
// the overload-aware admission ladder enabled and each shard's workload
// LUTs learning every served tile. -allocator selects the stage-D2 policy
// by registry name, -sink selects the telemetry sink, and -luts persists
// the warmed workload LUTs across restarts.
//
// Examples:
//
//	transcode -class brain -motion rotate -frames 48 -mode proposed
//	transcode -users 8 -frames 32
//	transcode -shards 3 -users 12 -frames 16 -sink jsonl -luts /tmp/luts.json
//	transcode -users 6 -allocator baseline
//	transcode -users 9 -tenants-config tenants.json -tenant-plan batch:6,clinic:2,er:1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/medgen"
	"repro/internal/metrics"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tenancy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// options is where every flag lands: parseFlags binds the flags straight
// onto its fields, and each mode reads the ones it needs.
type options struct {
	class, motion         string
	frames, width, height int
	seed                  int64
	mode                  string
	verbose               bool
	yuv                   string

	users, shards         int
	allocator, sink, luts string

	tenantsConfig, tenantPlan string

	cpuProfile, memProfile string

	minShards, maxShards int
	targetUtil           float64
	resizeAt             string
	stagger              int
	shardSessions        int

	shardCores string
	pixPerCore float64
	fourkEvery int

	hotClass  string
	rebFactor float64

	metricsAddr  string
	metricsGrace time.Duration
	costJoule    float64
	costMiss     float64

	masterAddr, agentAddr, submitURL string

	name, masterURL, advertiseURL  string
	heartbeatEvery, heartbeatGrace time.Duration
	checkpointEvery                int
	eventsPath                     string
}

func main() {
	// An interrupt cancels cleanly at the next tile boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, runs the one mode they select
// with its report on stdout, and maps what ended that mode to the exit
// status, with at most one line on stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // the flag set has printed the error and the usage
	}
	mode, distributed := o.pick()
	if err = o.check(); err == nil {
		var stopProfiles func()
		if stopProfiles, err = startProfiles(o.cpuProfile, o.memProfile, stderr); err == nil {
			defer stopProfiles()
			err = mode(ctx, o, stdout)
		}
	}
	// The one exit rule. An interrupt is how a master or agent node stops,
	// and it ends a submit where it is, so the distributed modes exit 0 on
	// it; a single or fleet run it cuts short exits 130.
	switch {
	case err == nil || distributed && errors.Is(err, context.Canceled):
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, "transcode: interrupted")
		return 130
	default:
		fmt.Fprintf(stderr, "transcode: %v\n", err)
		return 1
	}
}

// parseFlags binds every flag onto an options value and parses args; the
// flag set reports its own errors (and -h's usage) on stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("transcode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.class, "class", "brain", "body-part class: brain|chest|bone|spinal-cord|ligament")
	fs.StringVar(&o.motion, "motion", "rotate", "motion script: still|pan|rotate|sweep")
	fs.IntVar(&o.frames, "frames", 48, "number of frames")
	fs.IntVar(&o.width, "width", 640, "frame width")
	fs.IntVar(&o.height, "height", 480, "frame height")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	fs.StringVar(&o.mode, "mode", "proposed", "pipeline mode: proposed|baseline")
	fs.BoolVar(&o.verbose, "v", false, "print per-frame rows")
	fs.StringVar(&o.yuv, "yuv", "", "transcode a raw planar I420 file instead of a synthetic study (uses -width/-height/-class)")
	fs.IntVar(&o.users, "users", 1, "serve N concurrent synthetic sessions through the fleet serving loop")
	fs.IntVar(&o.shards, "shards", 1, "initial number of platform shards behind the fleet dispatcher")
	fs.StringVar(&o.allocator, "allocator", sched.NameContentAware,
		fmt.Sprintf("stage-D2 allocation policy: %s", strings.Join(sched.Names(), "|")))
	fs.StringVar(&o.sink, "sink", "report", "telemetry sink: report|jsonl|jsonl:PATH|none")
	fs.StringVar(&o.luts, "luts", "", "persist warmed workload LUTs at PATH (loaded on start, saved on clean exit)")

	fs.StringVar(&o.tenantsConfig, "tenants-config", "", "per-tenant QoS policy (weights, priority classes, admission rates) as tenancy JSON at PATH")
	fs.StringVar(&o.tenantPlan, "tenant-plan", "", "assign the -users sessions (served or submitted) to tenants in submission order: TENANT[:COUNT][@PRIORITY],... (counts must sum to -users; empty = the default tenant)")

	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to PATH, stopped and flushed when the run ends")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to PATH when the run ends (after a final GC)")

	fs.IntVar(&o.minShards, "min-shards", 0, "autoscaler floor (0 = -shards); the fleet never shrinks below this")
	fs.IntVar(&o.maxShards, "max-shards", 0, "autoscaler ceiling (0 = -shards); the fleet never grows beyond this")
	fs.Float64Var(&o.targetUtil, "target-util", 0.75, "autoscaler target demand-normalized utilization (summed core demand over summed capacity)")
	fs.StringVar(&o.resizeAt, "resize-at", "", "forced resize schedule ROUND:SHARDS[,ROUND:SHARDS...] on total fleet rounds (e.g. 6:4,14:3)")
	fs.IntVar(&o.stagger, "stagger", 0, "submit one user every N fleet rounds instead of all upfront (0 = upfront)")
	fs.IntVar(&o.shardSessions, "shard-sessions", 0, "cap each shard's live sessions for routing; overflow spills to the least-utilized shard (0 = even share of the users)")

	fs.StringVar(&o.shardCores, "shard-cores", "", "per-shard core counts N[,N...] (e.g. 8,16,32): builds a heterogeneous fleet (overrides -shards) and turns on demand-aware placement")
	fs.Float64Var(&o.pixPerCore, "pixels-per-core", 0, "demand-aware placement price: luma pixels per second one core transcodes (0 = serve default)")
	fs.IntVar(&o.fourkEvery, "fourk-every", 0, "give every Nth user a doubled-resolution stream in a separate \"-4k\" workload class (0 = off)")

	fs.StringVar(&o.hotClass, "hot-class", "", "give every user this body-part class (skews the class routing onto one shard)")
	fs.Float64Var(&o.rebFactor, "rebalance-factor", 0, "shed a shard whose utilization exceeds this multiple of the fleet mean (0 = rebalancing off, must be > 1)")

	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve a Prometheus /metrics endpoint on ADDR (e.g. 127.0.0.1:9090) during fleet runs")
	fs.DurationVar(&o.metricsGrace, "metrics-grace", 0, "keep the /metrics endpoint up this long after the run drains (for a final scrape)")
	fs.Float64Var(&o.costJoule, "cost-per-joule", 0, "cost-model dollars per joule behind repro_cost_dollars_total")
	fs.Float64Var(&o.costMiss, "cost-per-miss", 0, "cost-model dollars per frame-deadline miss")

	fs.StringVar(&o.masterAddr, "master", "", "run the distributed master (routing + supervision) on ADDR (e.g. 127.0.0.1:7600)")
	fs.StringVar(&o.agentAddr, "agent", "", "run one distributed agent node on ADDR; -name identifies it, -master-url registers it")
	fs.StringVar(&o.submitURL, "submit", "", "submit -users synthetic sessions to the master (or agent) at URL and exit")

	fs.StringVar(&o.name, "name", "", "this agent's stable identity on the master's ring (required with -agent)")
	fs.StringVar(&o.masterURL, "master-url", "", "master base URL the agent heartbeats to (empty = standalone agent)")
	fs.StringVar(&o.advertiseURL, "advertise-url", "", "base URL peers reach this agent at (empty = the bound address)")
	fs.DurationVar(&o.heartbeatEvery, "heartbeat-every", time.Second, "agent heartbeat period")
	fs.DurationVar(&o.heartbeatGrace, "heartbeat-grace", 5*time.Second, "master-side silence before an agent is declared dead and failed over")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 2, "agent wire-checkpoint cadence in settled rounds per shard")
	fs.StringVar(&o.eventsPath, "events", "", "master operational journal (agent deaths, re-imports) as JSONL at PATH")
	return o, fs.Parse(args)
}

// A modeFunc is one way the command runs. It writes its report to stdout
// and returns what ended it.
type modeFunc func(ctx context.Context, o options, stdout io.Writer) error

// pick returns the mode the flags select, and whether it is one of the
// distributed modes (-master, -agent, -submit), which an interrupt stops
// rather than cuts short.
func (o options) pick() (modeFunc, bool) {
	switch {
	case o.masterAddr != "":
		return runMaster, true
	case o.agentAddr != "":
		return runAgent, true
	case o.submitURL != "":
		return runSubmit, true
	case o.users > 1 || o.shards > 1 || o.shardCores != "":
		return serveFleet, false
	}
	return runSingle, false
}

// check refuses, before any mode runs, the counts a mode would divide by
// or loop to — -shards sizes the fleet and the per-shard session cap, and
// a staggered run closes its queue on reaching -users — the control knobs
// a NaN, infinity or negative value would silently switch off (each is
// only applied when "> 0", which NaN fails), and a -hot-class userVideo
// could not apply.
func (o options) check() error {
	if o.shards < 1 {
		return fmt.Errorf("-shards %d: need at least one shard", o.shards)
	}
	if o.users < 1 {
		return fmt.Errorf("-users %d: need at least one user", o.users)
	}
	for _, k := range []struct {
		flag string
		v    float64
	}{{"-rebalance-factor", o.rebFactor}, {"-target-util", o.targetUtil}, {"-pixels-per-core", o.pixPerCore}} {
		if !(k.v >= 0) || math.IsInf(k.v, 1) {
			return fmt.Errorf("%s %v: need a finite, non-negative value", k.flag, k.v)
		}
	}
	if _, ok := classByName(o.hotClass); o.hotClass != "" && !ok {
		return fmt.Errorf("-hot-class %q: unknown class", o.hotClass)
	}
	return nil
}

// runSingle transcodes one study — synthetic, or a raw -yuv file — through
// one session with no serving layer, printing each GOP's tile structure.
func runSingle(ctx context.Context, o options, stdout io.Writer) error {
	cfg := medgen.Default()
	cfg.Width, cfg.Height = o.width, o.height
	cfg.Frames = o.frames
	cfg.Seed = o.seed
	var ok bool
	if cfg.Class, ok = classByName(o.class); !ok {
		return fmt.Errorf("unknown class %q", o.class)
	}
	if cfg.Motion, ok = motionByName(o.motion); !ok {
		return fmt.Errorf("unknown motion %q", o.motion)
	}
	var src core.FrameSource
	var err error
	if o.yuv != "" {
		s, err := core.NewYUVFileSource(o.yuv, cfg.Width, cfg.Height, cfg.FPS, cfg.Class.String())
		if err != nil {
			return err
		}
		src = s
		cfg.Frames = s.Len()
	} else if src, err = medgen.NewGenerator(cfg); err != nil {
		return err
	}

	scfg := core.DefaultSessionConfig()
	if scfg.Mode, err = parseMode(o.mode); err != nil {
		return err
	}
	sess, err := core.NewSession(0, src, scfg, workload.NewLUT())
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "transcoding %s/%s %dx%d @ %g fps, %d frames, mode %s\n\n",
		cfg.Class, cfg.Motion, cfg.Width, cfg.Height, cfg.FPS, cfg.Frames, scfg.Mode)
	for gopIdx := 0; !sess.Finished(); gopIdx++ {
		gop, err := sess.EncodeGOPContext(ctx, runtime.GOMAXPROCS(0))
		if err != nil {
			return fmt.Errorf("GOP %d: %w", gopIdx, err)
		}
		fmt.Fprintf(stdout, "GOP %d: %d tiles, PSNR %.1f dB, %.0f kbps, CPU %v\n",
			gop.Index, gop.Grid.NumTiles(), gop.MeanPSNR, gop.MeanKbps, gop.CPUTime.Round(100))
		tbl := trace.NewTable("", "tile", "rect", "region", "texture", "motion", "CV")
		for _, tc := range gop.Contents {
			tbl.AddRow(fmt.Sprint(tc.Tile.Index), tc.Tile.Rect.String(), tc.Tile.Region.String(),
				tc.Texture.String(), tc.Motion.String(), fmt.Sprintf("%.3f", tc.CV))
		}
		if err := tbl.Render(stdout); err != nil {
			return err
		}
		if o.verbose {
			for _, fr := range gop.Frames {
				fmt.Fprintf(stdout, "  frame %3d [%s] %6d bits  %.1f dB  %v\n",
					fr.Frame, fr.Type, fr.Bits, fr.PSNR, fr.EncodeTime.Round(100))
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// shardCapacity is the live-session cap each shard routes with (0 =
// unbounded): an even share of the users across the fleet's shards. The
// synthetic corpus has only a handful of workload classes, so pure class
// routing can pile everyone on one shard — the cap spills the overflow to
// the least-utilized shards. An elastic run passes the fleet's widest size
// as shards, so a grown fleet can actually absorb the spill. unbounded
// lifts the cap: demand-aware placement on a heterogeneous fleet weighs
// sessions by core demand, which a uniform session cap would fight, and a
// skewed -hot-class run exists to let one shard run hot. An explicit
// -shard-sessions overrides all of it.
func shardCapacity(users, shards int, unbounded bool, override int) int {
	if override > 0 {
		return override
	}
	if unbounded {
		return 0
	}
	return (users + shards - 1) / shards
}

// tenantAssignment is one user's QoS identity under -tenant-plan; the zero
// value is the default tenant at best-effort priority.
type tenantAssignment struct {
	tenant   string
	priority int
}

// parseTenantPlan expands "TENANT[:COUNT][@PRIORITY],..." into one
// assignment per user, in plan order — the order matters under -stagger,
// where later entries arrive later (e.g. "batch:6,clinic:2,er:1@9" ends
// with one emergency-priority arrival onto an already-loaded fleet). An
// empty plan puts every user in the default tenant.
func parseTenantPlan(spec string, users int) ([]tenantAssignment, error) {
	if spec == "" {
		return make([]tenantAssignment, users), nil
	}
	var out []tenantAssignment
	for _, part := range strings.Split(spec, ",") {
		entry := strings.TrimSpace(part)
		pri := 0
		if at := strings.IndexByte(entry, '@'); at >= 0 {
			var err error
			if pri, err = strconv.Atoi(entry[at+1:]); err != nil {
				return nil, fmt.Errorf("bad -tenant-plan entry %q (want TENANT[:COUNT][@PRIORITY])", part)
			}
			entry = entry[:at]
		}
		count := 1
		if colon := strings.IndexByte(entry, ':'); colon >= 0 {
			var err error
			if count, err = strconv.Atoi(entry[colon+1:]); err != nil || count < 1 {
				return nil, fmt.Errorf("bad -tenant-plan entry %q (want TENANT[:COUNT][@PRIORITY])", part)
			}
			entry = entry[:colon]
		}
		if entry == "" {
			return nil, fmt.Errorf("bad -tenant-plan entry %q (empty tenant id)", part)
		}
		for i := 0; i < count; i++ {
			out = append(out, tenantAssignment{tenant: entry, priority: pri})
		}
	}
	if len(out) != users {
		return nil, fmt.Errorf("-tenant-plan covers %d users, -users is %d", len(out), users)
	}
	return out, nil
}

// userVideo is synthetic user i's study, the one roster the local fleet
// and -submit both serve: classes and motions rotate, seeds count up from
// -seed, and -hot-class gives every user the same class.
func userVideo(o options, i int) medgen.Config {
	classes := []medgen.Class{medgen.Brain, medgen.Chest, medgen.Bone, medgen.SpinalCord}
	motions := []medgen.MotionKind{medgen.Rotate, medgen.Pan, medgen.Sweep, medgen.Still}
	vc := medgen.Default()
	vc.Width, vc.Height = o.width, o.height
	vc.Frames = o.frames
	vc.Class = classes[i%len(classes)]
	vc.Motion = motions[i%len(motions)]
	vc.Seed = o.seed + int64(i)
	if hot, ok := classByName(o.hotClass); ok {
		vc.Class = hot
	}
	return vc
}

// userLabel names user i in a placement line: its workload class and, when
// it has one, its tenant.
func userLabel(i int, class string, a tenantAssignment) string {
	if a.tenant == "" {
		return fmt.Sprintf("user %2d (%s)", i, class)
	}
	return fmt.Sprintf("user %2d (%s, tenant %s)", i, class, a.tenant)
}

// parseShardCores parses the -shard-cores list ("8,16,32") into per-shard
// core counts; empty input means a homogeneous fleet.
func parseShardCores(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shard-cores entry %q (want a positive core count)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// buildSink maps the -sink flag to a serve.Sink; the returned RingSink
// is non-nil when the final report should be reconstructed from it, and
// the close func flushes a buffered sink (call it after Run returns; a
// second call is harmless). JSONL sinks are buffered with the block
// policy: a slow pipe no longer stalls serving through the sink lock, and
// no line is ever dropped. -sink jsonl writes to stdout.
func buildSink(spec string, stdout io.Writer) (serve.Sink, *serve.RingSink, func() error, error) {
	noop := func() error { return nil }
	switch {
	case spec == "none":
		return nil, nil, noop, nil
	case spec == "report":
		ring := serve.NewRingSink(256)
		return ring, ring, noop, nil
	case spec == "jsonl":
		s := serve.NewBufferedJSONLSink(stdout, 1024, serve.JSONLBlock)
		return s, nil, s.Close, nil
	case strings.HasPrefix(spec, "jsonl:"):
		f, err := os.Create(strings.TrimPrefix(spec, "jsonl:"))
		if err != nil {
			return nil, nil, nil, err
		}
		s := serve.NewBufferedJSONLSink(f, 1024, serve.JSONLBlock)
		return s, nil, sync.OnceValue(func() error {
			serr := s.Close()
			if cerr := f.Close(); serr == nil {
				serr = cerr
			}
			return serr
		}), nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown sink %q (report|jsonl|jsonl:PATH|none)", spec)
	}
}

// parseResizeAt parses "ROUND:SHARDS[,ROUND:SHARDS...]" into the serve
// autoscaler's forced schedule. The scaling policy itself lives in
// internal/serve (WithAutoscale); this command only maps flags to config.
func parseResizeAt(spec string) ([]serve.ScheduledResize, error) {
	if spec == "" {
		return nil, nil
	}
	var steps []serve.ScheduledResize
	for _, part := range strings.Split(spec, ",") {
		round, shards, ok := strings.Cut(strings.TrimSpace(part), ":")
		after, aerr := strconv.Atoi(round)
		n, nerr := strconv.Atoi(shards)
		if !ok || aerr != nil || nerr != nil || after < 0 || n < 1 {
			return nil, fmt.Errorf("bad -resize-at entry %q (want ROUND:SHARDS)", part)
		}
		steps = append(steps, serve.ScheduledResize{AfterRounds: after, Shards: n})
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].AfterRounds < steps[b].AfterRounds })
	return steps, nil
}

// servingOptions is the serving configuration the local fleet and an
// -agent node share: the -allocator policy, the admission ladder with
// rate-rung recovery after three rounds, the -tenants-config policy and,
// with -metrics-addr, a Prometheus sink behind a /metrics endpoint, which
// the returned func closes. An agent's tenancy keeps weights and priority
// classes only: the master charged the fleet-wide admission rates before
// routing to it.
func servingOptions(o options, stdout io.Writer) ([]serve.Option, func(), error) {
	opts := []serve.Option{
		serve.WithAllocator(o.allocator),
		serve.WithAdmission(core.AdmissionConfig{Enabled: true, RecoverAfterRounds: 3}),
	}
	if o.tenantsConfig != "" {
		reg, err := tenancy.LoadFile(o.tenantsConfig)
		if err != nil {
			return nil, nil, err
		}
		if o.agentAddr != "" {
			reg = reg.WithoutRates()
		}
		opts = append(opts, serve.WithTenancy(reg))
	}
	if o.metricsAddr == "" {
		return opts, func() {}, nil
	}
	msink := metrics.NewSink(metrics.SinkConfig{
		Cost:  metrics.CostModel{DollarsPerJoule: o.costJoule, DollarsPerDeadlineMiss: o.costMiss},
		Agent: o.name,
	})
	ln, err := net.Listen("tcp", o.metricsAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", msink.Handler())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stdout, "metrics: server failed: %v\n", err)
		}
	}()
	fmt.Fprintf(stdout, "metrics: serving http://%s/metrics\n", ln.Addr())
	return append(opts, serve.WithMetrics(msink)), func() { srv.Close() }, nil
}

// serveFleet drives the fleet serving API: n synthetic sessions of
// rotating classes/motions are routed across the shards by workload
// class and served with the admission ladder (including rate-rung
// recovery) and — when -min-shards/-max-shards
// span a range or -resize-at forces it — the serve-layer autoscaler
// (serve.WithAutoscale). All scaling policy lives in internal/serve;
// this function only maps flags onto configs.
func serveFleet(ctx context.Context, o options, stdout io.Writer) error {
	sessionMode, err := parseMode(o.mode)
	if err != nil {
		return err
	}
	shardCores, err := parseShardCores(o.shardCores)
	if err != nil {
		return err
	}
	// A heterogeneous core list defines the shard count.
	if len(shardCores) > 0 {
		o.shards = len(shardCores)
	}
	if o.minShards <= 0 {
		o.minShards = o.shards
	}
	if o.maxShards <= 0 {
		o.maxShards = o.shards
	}
	if o.minShards > o.shards || o.maxShards < o.shards {
		return fmt.Errorf("-shards %d outside [-min-shards %d, -max-shards %d]", o.shards, o.minShards, o.maxShards)
	}
	forced, err := parseResizeAt(o.resizeAt)
	if err != nil {
		return err
	}
	// The autoscaler widens its bounds to cover the forced schedule;
	// mirror that here for the capacity heuristic and the banner.
	for _, st := range forced {
		o.maxShards = max(o.maxShards, st.Shards)
		o.minShards = min(o.minShards, st.Shards)
	}
	plan, err := parseTenantPlan(o.tenantPlan, o.users)
	if err != nil {
		return err
	}
	fleetOptions, closeMetrics, err := servingOptions(o, stdout)
	if err != nil {
		return err
	}
	defer closeMetrics()
	sink, ring, closeSink, err := buildSink(o.sink, stdout)
	if err != nil {
		return err
	}
	defer closeSink()

	var fleet *serve.Fleet
	// Fleet-wide settled-round counter pacing staggered arrivals (hooks
	// run on serving goroutines).
	var totalRounds atomic.Int64
	submitted := 0
	var submitMu sync.Mutex

	submitUser := func(i int) error {
		vc := userVideo(o, i)
		className := vc.Class.String()
		// Every Nth user streams at four times the area under a separate
		// "-4k" workload class: its demand estimate and LUTs must not mix
		// with the base class's.
		if o.fourkEvery > 0 && (i+1)%o.fourkEvery == 0 {
			vc.Width *= 2
			vc.Height *= 2
			className += "-4k"
		}
		src, err := dist.NewMedgenSource(vc, className)
		if err != nil {
			return err
		}
		scfg := core.DefaultSessionConfig()
		scfg.Mode = sessionMode
		p, err := fleet.SubmitWith(serve.SubmitRequest{
			Source: src, Config: scfg, Tenant: plan[i].tenant, Priority: plan[i].priority,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s → shard %d (home %d)\n", userLabel(i, className, plan[i]), p.Shard, fleet.HomeShard(className))
		return nil
	}
	// submitStaggered submits user i from the round hook, where a refusal
	// (a tenant over its admission rate) ends only that user.
	submitStaggered := func(i int) {
		if err := submitUser(i); err != nil {
			fmt.Fprintf(stdout, "user %2d refused: %v\n", i, err)
		}
	}

	fleetOptions = append(fleetOptions,
		serve.WithShardCapacity(shardCapacity(o.users, o.maxShards, o.hotClass != "" || len(shardCores) > 0, o.shardSessions)),
		serve.WithRoundHook(func(shard int, out *core.GOPOutcome) {
			// One write per line, so concurrent shards' lines stay whole.
			line := fmt.Sprintf("shard %d round %2d: admitted %v", shard, out.Round, out.AdmittedUsers)
			for _, ids := range []struct {
				label string
				of    []int
			}{{"waiting", out.RejectedUsers}, {"timed out", out.TimedOut}, {"rate-restored", out.Recovered}} {
				if len(ids.of) > 0 {
					line += fmt.Sprintf(", %s %v", ids.label, ids.of)
				}
			}
			if out.EstimateTiles > 0 {
				line += fmt.Sprintf(", estimate error %.1f%%", 100*out.EstimateErr)
			}
			fmt.Fprintf(stdout, "%s, %.1f W\n", line, out.Energy.AvgPowerW)

			rounds := int(totalRounds.Add(1))
			// Staggered churn: one new arrival every -stagger fleet
			// rounds; the queue closes after the last one.
			if o.stagger > 0 {
				submitMu.Lock()
				for submitted < o.users && rounds >= submitted*o.stagger {
					submitStaggered(submitted)
					submitted++
				}
				// Never let the service idle out with users still pending:
				// if this round retired the last live session before the
				// next stagger threshold, no further round (and hence no
				// further hook) would ever fire — submit the next user now.
				if submitted < o.users && serve.SumLoads(fleet.Loads()).Sessions == 0 {
					submitStaggered(submitted)
					submitted++
				}
				if submitted == o.users {
					submitted++ // close once
					fleet.Close()
				}
				submitMu.Unlock()
			}
		}),
	)
	if len(shardCores) > 0 {
		// Heterogeneous fleet: one platform per entry, cores overridden,
		// plus demand-aware placement so heavy classes steer to the big
		// shards instead of wherever their ring arc happens to land.
		platforms := make([]*mpsoc.Platform, len(shardCores))
		for i, n := range shardCores {
			p := mpsoc.XeonE5_2667V4()
			p.Cores = n
			platforms[i] = p
		}
		fleetOptions = append(fleetOptions,
			serve.WithPlatforms(platforms...),
			serve.WithDemandPlacement(serve.PlacementConfig{PixelsPerCore: o.pixPerCore}),
		)
	} else {
		fleetOptions = append(fleetOptions, serve.WithShards(o.shards))
		if o.pixPerCore > 0 {
			fleetOptions = append(fleetOptions,
				serve.WithDemandPlacement(serve.PlacementConfig{PixelsPerCore: o.pixPerCore}))
		}
	}
	if o.minShards < o.maxShards || len(forced) > 0 {
		fleetOptions = append(fleetOptions, serve.WithAutoscale(serve.AutoscaleConfig{
			MinShards:  o.minShards,
			MaxShards:  o.maxShards,
			TargetUtil: o.targetUtil,
			Schedule:   forced,
			OnResize: func(from, to int, reason string) {
				fmt.Fprintf(stdout, "autoscaler: resizing fleet %d → %d shards (%s)\n", from, to, reason)
			},
			OnError: func(err error) {
				fmt.Fprintf(stdout, "autoscaler: resize failed: %v\n", err)
			},
		}))
	}
	if o.rebFactor > 0 {
		fleetOptions = append(fleetOptions, serve.WithRebalance(serve.RebalanceConfig{Factor: o.rebFactor}))
	}
	if sink != nil {
		fleetOptions = append(fleetOptions, serve.WithSink(sink))
	}
	if o.luts != "" {
		fleetOptions = append(fleetOptions, serve.WithLUTStore(o.luts))
	}
	if fleet, err = serve.New(fleetOptions...); err != nil {
		return err
	}

	if o.stagger > 0 {
		// Seed the service with the first user; the round hook feeds the
		// rest and closes the queue.
		submitMu.Lock()
		err := submitUser(0)
		submitted = 1
		submitMu.Unlock()
		if err != nil {
			return err
		}
	} else {
		for i := 0; i < o.users; i++ {
			if err := submitUser(i); err != nil {
				return err
			}
		}
		fleet.Close()
	}

	shape := fmt.Sprintf("%d shard(s) of %d cores each", o.shards, mpsoc.XeonE5_2667V4().Cores)
	if len(shardCores) > 0 {
		shape = fmt.Sprintf("%d shards of %v cores", o.shards, shardCores)
	}
	fmt.Fprintf(stdout, "\nserving %d users on %s (min %d, max %d), allocator %q\n\n",
		o.users, shape, o.minShards, o.maxShards, o.allocator)
	rep, runErr := fleet.Run(ctx)
	if cerr := closeSink(); cerr != nil && runErr == nil {
		runErr = cerr
	}

	fmt.Fprintf(stdout, "\nfleet report: %d rounds over %d shards, %d/%d sessions completed (%d rejected, %d failed, %d migrations, %d rebalances)\n",
		rep.Rounds, len(rep.Shards), rep.Completed, rep.Submitted, rep.Rejected, rep.Failed, rep.Migrated, rep.Rebalanced)
	fmt.Fprintf(stdout, "  %d frames in %d GOP reports, %.1f J total (avg %.1f W, peak %.1f W), %d deadline misses\n",
		rep.FramesEncoded, rep.GOPReports, rep.Energy.EnergyJ, rep.Energy.AvgPowerW(), rep.Energy.PeakPowerW, rep.Energy.DeadlineMisses)
	for _, sr := range rep.Shards {
		status := "ok"
		if sr.Err != nil {
			status = sr.Err.Error()
		}
		fmt.Fprintf(stdout, "  shard %d: %d rounds, %d completed, %d migrated away, %d restarts [%s]\n",
			sr.Shard, sr.Report.Rounds, len(sr.Report.Completed), len(sr.Report.Migrated), sr.Restarts, status)
	}
	if ring != nil {
		if e, tiles := core.MeanEstimateErr(ring.Outcomes(), 0); tiles > 0 {
			fmt.Fprintf(stdout, "  mean stage-D1 estimate error %.1f%% over %d tiles (ring sink, %d rounds dropped)\n",
				100*e, tiles, ring.Dropped())
		}
		if added, removed := ring.Resizes(); added+removed > 0 {
			fmt.Fprintf(stdout, "  elasticity: %d shards added, %d removed, %d session migrations\n",
				added, removed, ring.Migrations())
		}
		if n := ring.Rebalances(); n > 0 {
			fmt.Fprintf(stdout, "  rebalancing: %d session(s) shed off hot shards\n", n)
		}
	}
	if o.luts != "" && runErr == nil {
		fmt.Fprintf(stdout, "  workload LUTs saved to %s\n", o.luts)
	}
	if o.metricsAddr != "" && o.metricsGrace > 0 {
		// Hold the endpoint open so an external scraper (CI, Prometheus's
		// final pull) can read the settled totals after the fleet drains.
		fmt.Fprintf(stdout, "  metrics endpoint held open %s for a final scrape\n", o.metricsGrace)
		select {
		case <-time.After(o.metricsGrace):
		case <-ctx.Done():
		}
	}
	return runErr
}

// parseMode maps -mode onto the session mode of every transcode mode that
// opens sessions: single-session, fleet and -submit.
func parseMode(name string) (core.Mode, error) {
	switch name {
	case "proposed":
		return core.ModeProposed, nil
	case "baseline":
		return core.ModeBaseline, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

func classByName(name string) (medgen.Class, bool) {
	for c := medgen.Class(0); int(c) < medgen.NumClasses; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

func motionByName(name string) (medgen.MotionKind, bool) {
	for _, m := range []medgen.MotionKind{medgen.Still, medgen.Pan, medgen.Rotate, medgen.Sweep} {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// startProfiles turns on the requested pprof outputs and returns the hook
// that flushes them when the run ends, however it ends: the CPU profile is
// stopped and closed, and the heap profile is captured after a final GC so
// it reflects live retention rather than garbage awaiting collection. A
// profile the hook cannot write is reported on stderr.
func startProfiles(cpuPath, memPath string, stderr io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(stderr, "transcode: cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(stderr, "transcode: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "transcode: memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "transcode: memprofile: %v\n", err)
			}
		}
	}, nil
}
