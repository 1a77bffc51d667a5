package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the driver could see, as written to the trace
// file. Times are nanoseconds since the pass started. Parent is the ID of
// the enclosing round span of the same unit (0 = none); a unit is one
// serving loop — a fleet shard, or a dist agent's shard.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Unit    int    `json:"unit"`
	Session int    `json:"session"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer is
// tracing switched off: the probes test for nil before they read the
// clock, so the untraced pass pays nothing.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open is the ID of each unit's current round span. A round span is
	// opened when the previous round hook returns and closed when the next
	// one is entered; every span recorded for the unit in between is its
	// child.
	open map[int]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int]int), spans: make([]span, 0, 1<<16)}
}

// record stores one finished child span.
func (t *tracer) record(name string, unit, session int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.open[unit], Name: name, Unit: unit, Session: session,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// openRound starts the unit's next round span at the given time.
func (t *tracer) openRound(unit int, start time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: "core.round", Unit: unit, Session: -1,
		Start: int64(start.Sub(t.epoch)), End: -1,
	})
	t.open[unit] = len(t.spans)
	t.mu.Unlock()
}

// closeRound ends the unit's open round span.
func (t *tracer) closeRound(unit int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id := t.open[unit]; id > 0 {
		t.spans[id-1].End = int64(end.Sub(t.epoch))
		t.open[unit] = 0
	}
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it its children cover.
// Children of one round run concurrently (four sessions read their sources
// at once), so coverage is the length of the union of the child intervals,
// not their sum.
func (t *tracer) selfTimes() (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // a round left open when the pass ended
		}
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d - time.Duration(unionLength(children[s.ID], s.Start, s.End))
	}
	return
}

// unionLength is the length of the union of the intervals, clipped to
// [lo, hi].
func unionLength(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			covered += curHi - curLo
		}
	}
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return covered
}

// write dumps the spans as one JSON document into dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", workload))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
