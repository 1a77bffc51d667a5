package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/video"
)

// TestJSONLSinkStreamsParseableEvents: every event becomes one valid JSON
// line with the expected envelope, and the stream covers the session's
// whole lifecycle.
func TestJSONLSinkStreamsParseableEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBufferedJSONLSink(&buf, 16, JSONLBlock)
	f, err := New(WithShards(1), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "stream", 1, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Event   string `json:"event"`
			Shard   int    `json:"shard"`
			Session int    `json:"session"`
			State   string `json:"state"`
			Frames  int    `json:"frames"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable line %q: %v", sc.Text(), err)
		}
		if line.Event == "" {
			t.Fatalf("line without event type: %q", sc.Text())
		}
		if line.Event == "gop" && line.Frames != 4 {
			t.Fatalf("gop event with %d frames, want 4: %q", line.Frames, sc.Text())
		}
		counts[line.Event]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 8 frames in GOPs of 4 → 2 rounds, 2 GOPs; queued + completed.
	if counts["gop"] != 2 || counts["round"] != 2 || counts["session_state"] != 2 {
		t.Fatalf("event counts %v, want 2 gop / 2 round / 2 session_state", counts)
	}
}

// gateWriter blocks every Write until released.
type gateWriter struct {
	release chan struct{}
	buf     bytes.Buffer
	writes  int
}

func (g *gateWriter) Write(p []byte) (int, error) {
	<-g.release
	g.writes++
	return g.buf.Write(p)
}

// TestBufferedJSONLSinkDropPolicy: with a writer that cannot keep up, a
// JSONLDrop sink never blocks the event path — it sheds lines and counts
// them, and every line it kept is intact.
func TestBufferedJSONLSinkDropPolicy(t *testing.T) {
	gate := &gateWriter{release: make(chan struct{})}
	sink := NewBufferedJSONLSink(gate, 2, JSONLDrop)

	const events = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < events; i++ {
			sink.OnSessionStateChange(SessionEvent{Shard: 0, Session: i})
		}
	}()
	select {
	case <-done:
		// The serving path never waited on the stalled writer.
	case <-time.After(10 * time.Second):
		t.Fatal("drop-policy sink blocked the event path behind a stalled writer")
	}
	close(gate.release)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	dropped := int(sink.Dropped())
	if dropped == 0 {
		t.Fatal("a stalled writer dropped nothing — the buffer cannot have been bounded")
	}
	kept := 0
	sc := bufio.NewScanner(&gate.buf)
	for sc.Scan() {
		var line struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("dropped mid-line, kept lines corrupt: %q", sc.Text())
		}
		kept++
	}
	if kept+dropped != events {
		t.Fatalf("kept %d + dropped %d != %d emitted", kept, dropped, events)
	}
}

// TestBufferedJSONLSinkBlockPolicy: the block policy loses nothing — all
// lines arrive, in order, once the writer drains; Close flushes.
func TestBufferedJSONLSinkBlockPolicy(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBufferedJSONLSink(&buf, 4, JSONLBlock)
	const events = 100
	for i := 0; i < events; i++ {
		sink.OnSessionStateChange(SessionEvent{Shard: 1, Session: i})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("block policy dropped %d lines", sink.Dropped())
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var line struct {
			Session int `json:"session"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Session != n {
			t.Fatalf("line %d carries session %d — ordering broken", n, line.Session)
		}
		n++
	}
	if n != events {
		t.Fatalf("%d lines written, want %d", n, events)
	}
}

// TestBufferedJSONLSinkServesFleet: a buffered sink on a real fleet run
// sees the same event stream a synchronous one would.
func TestBufferedJSONLSinkServesFleet(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBufferedJSONLSink(&buf, 64, JSONLBlock)
	f, err := New(WithShards(1), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "buffered", 1, 8), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		counts[line.Event]++
	}
	if counts["gop"] != 2 || counts["round"] != 2 || counts["session_state"] != 2 {
		t.Fatalf("event counts %v, want 2 gop / 2 round / 2 session_state", counts)
	}
}

// failingSource panics when asked for frame failAt — how a file-backed
// source reports an I/O error mid-stream (core.YUVFileSource).
type failingSource struct {
	core.FrameSource
	failAt int
}

func (s failingSource) Frame(n int) *video.Frame {
	if n == s.failAt {
		panic("failingSource: simulated I/O error")
	}
	return s.FrameSource.Frame(n)
}

// describe renders a report's per-shard ledgers for a failure message.
func describe(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet %+v", *r)
	for _, sr := range r.Shards {
		fmt.Fprintf(&b, "\n  shard %d: %+v (restarts %d, err %v)", sr.Shard, *sr.Report, sr.Restarts, sr.Err)
	}
	return b.String()
}

// TestRingReportMatchesFleetLedger: the two views of the service — the
// fleet's Report, read from the shards' ledgers, and the RingSink's,
// derived from the event stream alone — are one type and must agree field
// for field, on a run that exercises everything that moves a session
// between the books: a hot shard shedding (rebalance hop), a shard
// drained away mid-stream (resize migration) and a session failing on a
// panicking source. Session ids are shard-local, so the run also has
// three shards' "session 0" meet three different fates; neither view may
// merge them. The order is fixed, not raced: the leaving shard holds its
// first round boundary until the hot shard has shed (or served out), and
// only then does the test resize it away.
func TestRingReportMatchesFleetLedger(t *testing.T) {
	ring := NewRingSink(256)
	shed, leavingServed := make(chan struct{}), make(chan struct{})
	var shedOnce, leaveOnce sync.Once
	var f *Fleet
	f, err := New(
		WithShards(3),
		WithRebalance(RebalanceConfig{Factor: 1.2}),
		WithSink(ring),
		WithRoundHook(func(shard int, _ *core.GOPOutcome) {
			switch shard {
			case 0:
				if f.Report().Rebalanced > 0 || f.Loads()[0].Sessions == 0 {
					shedOnce.Do(func() { close(shed) })
				}
			case 2:
				<-shed
				leaveOnce.Do(func() { close(leavingServed) })
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(src core.FrameSource, wantShard int) {
		t.Helper()
		p, err := f.SubmitWith(SubmitRequest{Source: src, Config: testSessionConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if p.Shard != wantShard {
			t.Fatalf("class %q landed on shard %d, want %d", src.Class(), p.Shard, wantShard)
		}
	}
	hot := classHomedOn(t, f, 0)
	for i := 0; i < 4; i++ {
		submit(testSource(t, hot, int64(i+1), 24), 0)
	}
	submit(failingSource{testSource(t, classHomedOn(t, f, 1), 7, 16), 5}, 1)
	submit(testSource(t, classHomedOn(t, f, 2), 9, 40), 2)

	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := f.Run(context.Background())
		done <- result{rep, err}
	}()
	<-leavingServed
	if err := f.resize(2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	rep := res.rep

	// The scenario really happened.
	if rep.Submitted != 6 || rep.Completed != 5 || rep.Failed != 1 || rep.Rejected != 0 {
		t.Fatalf("want 6 unique sessions, 5 completed, 1 failed:\n%s", describe(rep))
	}
	if rep.Rebalanced == 0 || rep.Migrated <= rep.Rebalanced {
		t.Fatalf("want at least one rebalance hop and one resize migration, got %d hops, %d of them rebalances",
			rep.Migrated, rep.Rebalanced)
	}
	if rep.FramesEncoded != 4*24+4+40 {
		t.Fatalf("%d frames encoded, want %d (the failed session delivered its first GOP)", rep.FramesEncoded, 4*24+4+40)
	}
	// Colliding shard-local ids stay distinct: shard 1's session 0 failed
	// with its cause, shard 2's session 0 migrated away.
	if s1 := rep.Shards[1].Report; fmt.Sprint(s1.Failed) != "[0]" || s1.Errors[0] == nil ||
		!strings.Contains(s1.Errors[0].Error(), "simulated I/O error") {
		t.Fatalf("shard 1 failed %v errors %v, want session 0 failed on the source panic", s1.Failed, s1.Errors)
	}
	if s2 := rep.Shards[2].Report; len(s2.Migrated) == 0 || s2.Migrated[0] != 0 || len(s2.Failed) != 0 {
		t.Fatalf("shard 2 migrated %v failed %v, want session 0 drained away", s2.Migrated, s2.Failed)
	}

	if got := f.Report(); !reflect.DeepEqual(got, rep) {
		t.Fatalf("Report after Run differs from what Run returned:\n got %s\nwant %s", describe(got), describe(rep))
	}
	if got := ring.Report(); !reflect.DeepEqual(got, rep) {
		t.Fatalf("event-derived view differs from the ledger:\n ring %s\nfleet %s", describe(got), describe(rep))
	}
}

// TestReportMonotoneDuringRun polls Fleet.Report from another goroutine
// while shards serve, shed and complete: every snapshot is consistent
// enough that no counter ever moves backwards (run under -race).
func TestReportMonotoneDuringRun(t *testing.T) {
	f, class, _ := hotFleet(t, 2, RebalanceConfig{Factor: 1.2}, nil)
	for i := 0; i < 4; i++ {
		if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, class, int64(i+1), 16), Config: testSessionConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	stop := make(chan struct{})
	polled := make(chan int, 1)
	go func() {
		n := 0
		prev := f.Report()
		for {
			cur := f.Report()
			n++
			for _, c := range []struct {
				name       string
				was, isNow int
			}{
				{"Rounds", prev.Rounds, cur.Rounds},
				{"Submitted", prev.Submitted, cur.Submitted},
				{"Completed", prev.Completed, cur.Completed},
				{"Rejected", prev.Rejected, cur.Rejected},
				{"Failed", prev.Failed, cur.Failed},
				{"Migrated", prev.Migrated, cur.Migrated},
				{"Rebalanced", prev.Rebalanced, cur.Rebalanced},
				{"FramesEncoded", prev.FramesEncoded, cur.FramesEncoded},
				{"GOPReports", prev.GOPReports, cur.GOPReports},
				{"Energy.Slots", prev.Energy.Slots, cur.Energy.Slots},
			} {
				if c.isNow < c.was {
					t.Errorf("%s went backwards: %d → %d", c.name, c.was, c.isNow)
				}
			}
			if cur.Energy.EnergyJ < prev.Energy.EnergyJ {
				t.Errorf("energy went backwards: %v → %v", prev.Energy.EnergyJ, cur.Energy.EnergyJ)
			}
			prev = cur
			select {
			case <-stop:
				polled <- n
				return
			default:
			}
		}
	}()
	rep, err := f.Run(context.Background())
	close(stop)
	if n := <-polled; n == 0 {
		t.Fatal("poller never ran")
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 4 || rep.Completed != 4 || rep.Rebalanced == 0 {
		t.Fatalf("report %+v, want 4 completed with at least one rebalance", rep)
	}
}

// TestMultiSinkFansOut: the WithSink sink and a WithMetrics sink both see
// every event.
func TestMultiSinkFansOut(t *testing.T) {
	a, b := &recordingSink{}, &recordingSink{}
	f, err := New(WithShards(1), WithSink(a), WithMetrics(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWith(SubmitRequest{Source: testSource(t, "fan", 1, 4), Config: testSessionConfig()}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(a.gops) != 1 || len(b.gops) != len(a.gops) ||
		len(a.rounds) != 1 || len(b.rounds) != len(a.rounds) ||
		len(a.states) != 2 || len(b.states) != len(a.states) {
		t.Fatalf("sinks diverge: a=%d/%d/%d b=%d/%d/%d",
			len(a.gops), len(a.rounds), len(a.states), len(b.gops), len(b.rounds), len(b.states))
	}
}
