package main

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// syncBuffer is a bytes.Buffer the writers of one mode share: shard round
// hooks, the autoscaler's callbacks and a node's log all write from their
// own goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestModes runs the command in-process, one row per way it is used, at
// the smallest geometry the pipeline accepts (three 64-pixel tiles a side).
// Each row names its context, arguments, exit status and the stdout lines
// scripts/drivers.sh greps; every row then holds the shared invariants of
// the exit rule: a clean exit writes nothing to stderr, and any other
// writes exactly one "transcode: ..." line.
func TestModes(t *testing.T) {
	small := []string{"-width", "192", "-height", "192"}
	with := func(args ...string) []string { return append(args, small...) }
	// A tiny fleet run, so a knob that is wrongly accepted fails fast.
	fleet := with("-users", "2", "-shards", "2", "-frames", "4", "-sink", "none")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, row := range []struct {
		name   string
		ctx    context.Context // nil: not cancelled
		args   []string
		code   int
		stdout []string // each a regexp some stdout line matches
		stderr string   // the one stderr line's prefix when code != 0
	}{
		{name: "single proposed", args: with("-frames", "2", "-v"), stdout: []string{`^  frame +0 \[I\]`}},
		{name: "single baseline", args: with("-mode", "baseline", "-class", "chest", "-motion", "pan", "-frames", "2"),
			stdout: []string{`^GOP 0: 2 tiles`}},
		{name: "fixed fleet", args: fleet, stdout: []string{`^fleet report: .* 2/2 sessions completed \(0 rejected, 0 failed`}},
		{name: "staggered fleet with tenants",
			args: with("-users", "3", "-frames", "4", "-stagger", "1", "-tenant-plan", "batch:2,er@9", "-sink", "none"),
			stdout: []string{
				`^user  0 \(brain, tenant batch\) → shard 0`,
				`^user  2 \(bone, tenant er\) → shard 0`,
				`^fleet report: .* 3/3 sessions completed \(0 rejected, 0 failed`,
			}},

		// An interrupt cuts a run short, but is how a node stops.
		{name: "interrupted single", ctx: cancelled, args: with("-frames", "2"), code: 130, stderr: "transcode: interrupted"},
		{name: "interrupted fleet", ctx: cancelled, args: fleet, code: 130, stderr: "transcode: interrupted"},
		{name: "interrupted master", ctx: cancelled, args: []string{"-master", "127.0.0.1:0"}},
		{name: "interrupted agent", ctx: cancelled, args: []string{"-agent", "127.0.0.1:0", "-name", "a", "-sink", "none"}},
		{name: "interrupted submit", ctx: cancelled, args: []string{"-submit", "http://127.0.0.1:1", "-users", "2"}},

		// A count the fleet would divide by is refused up front (-shards 0
		// used to panic with an integer divide by zero), and so is a control
		// knob a NaN, infinity or negative value would silently switch off
		// (-rebalance-factor NaN used to run a whole fleet without
		// rebalancing).
		{name: "zero shards", args: []string{"-shards", "0", "-users", "2"}, code: 1, stderr: "transcode: -shards"},
		{name: "negative shards", args: []string{"-shards", "-3", "-users", "2"}, code: 1, stderr: "transcode: -shards"},
		{name: "zero users", args: []string{"-shards", "2", "-users", "0", "-stagger", "1"}, code: 1, stderr: "transcode: -users"},
		{name: "NaN rebalance factor", args: append([]string{"-rebalance-factor", "NaN"}, fleet...), code: 1, stderr: "transcode: -rebalance-factor"},
		{name: "negative rebalance factor", args: append([]string{"-rebalance-factor", "-1"}, fleet...), code: 1, stderr: "transcode: -rebalance-factor"},
		{name: "infinite rebalance factor", args: append([]string{"-rebalance-factor", "+Inf"}, fleet...), code: 1, stderr: "transcode: -rebalance-factor"},
		{name: "NaN target util", args: append([]string{"-target-util", "NaN"}, fleet...), code: 1, stderr: "transcode: -target-util"},
		{name: "negative target util", args: append([]string{"-target-util", "-0.5"}, fleet...), code: 1, stderr: "transcode: -target-util"},
		{name: "NaN pixels per core", args: append([]string{"-pixels-per-core", "NaN"}, fleet...), code: 1, stderr: "transcode: -pixels-per-core"},
		{name: "infinite pixels per core", args: append([]string{"-pixels-per-core", "+Inf"}, fleet...), code: 1, stderr: "transcode: -pixels-per-core"},
		{name: "unknown hot class", args: append([]string{"-hot-class", "femur"}, fleet...), code: 1, stderr: "transcode: -hot-class"},
		{name: "short tenant plan", args: append([]string{"-tenant-plan", "batch"}, fleet...), code: 1, stderr: "transcode: -tenant-plan"},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx := row.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var stdout, stderr syncBuffer
			if code := run(ctx, row.args, &stdout, &stderr); code != row.code {
				t.Fatalf("%v: exit %d, want %d\nstderr: %s", row.args, code, row.code, stderr.String())
			}
			msg := stderr.String()
			switch {
			case row.code == 0 && msg != "":
				t.Errorf("clean exit wrote to stderr: %q", msg)
			case row.code != 0 && (strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, row.stderr)):
				t.Errorf("stderr %q, want one %q... line", msg, row.stderr)
			}
			for _, want := range row.stdout {
				if !regexp.MustCompile("(?m)" + want).MatchString(stdout.String()) {
					t.Errorf("no stdout line matches %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

func TestShardCapacity(t *testing.T) {
	for _, tc := range []struct {
		users, shards int
		unbounded     bool
		override      int
		want          int
	}{
		{users: 12, shards: 3, want: 4},
		{users: 13, shards: 3, want: 5}, // rounds up: nobody is left without a slot
		{users: 2, shards: 8, want: 1},
		{users: 16, shards: 4, want: 4},                               // an elastic 2→4 run passes the widest size
		{users: 12, shards: 3, unbounded: true, want: 0},              // -hot-class / -shard-cores
		{users: 12, shards: 3, override: 2, want: 2},                  // -shard-sessions
		{users: 12, shards: 3, unbounded: true, override: 2, want: 2}, // ... even on an unbounded run
	} {
		if got := shardCapacity(tc.users, tc.shards, tc.unbounded, tc.override); got != tc.want {
			t.Errorf("shardCapacity(%d, %d, %v, %d) = %d, want %d", tc.users, tc.shards, tc.unbounded, tc.override, got, tc.want)
		}
	}
}

func TestParseTenantPlan(t *testing.T) {
	got, err := parseTenantPlan("batch:2, clinic,er:1@9", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []tenantAssignment{{"batch", 0}, {"batch", 0}, {"clinic", 0}, {"er", 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan %v, want %v", got, want)
	}
	if got, err := parseTenantPlan("", 3); err != nil || !reflect.DeepEqual(got, make([]tenantAssignment, 3)) {
		t.Fatalf("empty plan: %v, %v; want every user in the default tenant", got, err)
	}
	for _, bad := range []string{
		"batch:2",      // covers 2 users, not 4
		"batch:4x",     // trailing garbage after the count
		"batch:0,er:4", // a zero count
		"batch:4@9x",   // trailing garbage after the priority
		"batch:4@",     // no priority
		":4",           // no tenant
		"batch:3,,er",  // an empty entry
	} {
		if got, err := parseTenantPlan(bad, 4); err == nil {
			t.Errorf("plan %q accepted as %v", bad, got)
		}
	}
}

func TestParseShardCores(t *testing.T) {
	got, err := parseShardCores("8, 16,32")
	if err != nil || !reflect.DeepEqual(got, []int{8, 16, 32}) {
		t.Fatalf("cores %v, %v", got, err)
	}
	if got, err := parseShardCores(""); got != nil || err != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	for _, bad := range []string{"8,0", "8,-16", "8,,16", "8x", "16 cores", "1e1"} {
		if got, err := parseShardCores(bad); err == nil {
			t.Errorf("cores %q accepted as %v", bad, got)
		}
	}
}

func TestParseResizeAt(t *testing.T) {
	got, err := parseResizeAt("14:3,4:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []serve.ScheduledResize{{AfterRounds: 4, Shards: 4}, {AfterRounds: 14, Shards: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule %v, want %v (sorted by round)", got, want)
	}
	if got, err := parseResizeAt(""); got != nil || err != nil {
		t.Fatalf("empty schedule: %v, %v", got, err)
	}
	for _, bad := range []string{"4:4x", "4x:4", "4", "4:", ":4", "4:0", "-1:4", "4:4,", "4:4:4"} {
		if got, err := parseResizeAt(bad); err == nil {
			t.Errorf("schedule %q accepted as %v", bad, got)
		}
	}
}
