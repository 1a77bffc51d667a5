package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestMain lets the test binary stand in for the command: re-executed with
// TRANSCODE_RUN_MAIN set it runs main() on its arguments, so a test can
// observe the real exit code and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("TRANSCODE_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsExitOne: a count the fleet would divide by is refused up
// front with one line on stderr and exit status 1 (-shards 0 used to panic
// with an integer divide by zero), and so is a control knob a NaN,
// infinity or negative value would silently switch off (-rebalance-factor
// NaN used to run a whole fleet without rebalancing).
func TestBadCountsExitOne(t *testing.T) {
	// A tiny fleet run, so a knob that is wrongly accepted fails fast.
	fleet := []string{"-users", "2", "-shards", "2", "-frames", "4", "-width", "192", "-height", "192", "-sink", "none"}
	for _, args := range [][]string{
		{"-shards", "0", "-users", "2"},
		{"-shards", "-3", "-users", "2"},
		{"-shards", "2", "-users", "0", "-stagger", "1"},
		append([]string{"-rebalance-factor", "NaN"}, fleet...),
		append([]string{"-rebalance-factor", "-1"}, fleet...),
		append([]string{"-rebalance-factor", "+Inf"}, fleet...),
		append([]string{"-target-util", "NaN"}, fleet...),
		append([]string{"-target-util", "-0.5"}, fleet...),
		append([]string{"-pixels-per-core", "NaN"}, fleet...),
		append([]string{"-pixels-per-core", "+Inf"}, fleet...),
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "TRANSCODE_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: ran to %v, want exit status 1\n%s", args, err, stderr.String())
			continue
		}
		msg := strings.TrimSpace(stderr.String())
		if !strings.HasPrefix(msg, "transcode: -") || strings.Contains(msg, "\n") || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr %q, want one \"transcode: -flag ...\" line", args, msg)
		}
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
	if got, err := parseTenantPlan("", 7); got != nil || err != nil {
		t.Fatalf("empty plan: %v, %v", got, err)
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
