package metrics

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// DroppedSeries reports how many series were refused by the maxSeries
// bound, which every scrape exports as repro_metrics_dropped_series_total.
func (r *Registry) DroppedSeries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// TestRegistryBoundsCardinality: the maxSeries cap is a hard bound — a
// label flood allocates nothing past it, refused series are counted, and
// the scrape stays well-formed with the dropped counter visible.
func TestRegistryBoundsCardinality(t *testing.T) {
	reg := newRegistry("")
	c := reg.counter("repro_test_total", "t", "id")
	for i := 0; i < maxSeries+92; i++ {
		c.add(1, strconv.Itoa(i))
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "repro_test_total{") {
			lines++
		}
	}
	if lines != maxSeries {
		t.Fatalf("%d series exported, the cap is %d", lines, maxSeries)
	}
	if got := reg.DroppedSeries(); got != 92 {
		t.Fatalf("DroppedSeries = %d, want 92", got)
	}
	if !strings.Contains(b.String(), "repro_metrics_dropped_series_total 92") {
		t.Fatalf("dropped-series self-metric missing from scrape:\n%s", b.String())
	}
}

// TestRegistryExpositionFormat: counters, gauges and histograms render
// the Prometheus text format — HELP/TYPE headers, escaped label values,
// cumulative buckets with +Inf, and round-trip-exact float values.
func TestRegistryExpositionFormat(t *testing.T) {
	reg := newRegistry("")
	exact := 1.0 / 3.0
	reg.counter("repro_c_total", "counter help", "shard").add(exact, "0")
	reg.gauge("repro_g", "gauge help").set(-2.5)
	h := reg.histogram("repro_h", "hist help", []float64{1, 2}, "k")
	h.observe(0.5, `a"b\c`)
	h.observe(1.5, `a"b\c`)
	h.observe(99, `a"b\c`)
	h.observe(math.NaN(), `a"b\c`) // dropped, must not poison the sum

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP repro_c_total counter help",
		"# TYPE repro_c_total counter",
		"# TYPE repro_g gauge",
		"repro_g -2.5",
		"# TYPE repro_h histogram",
		`repro_h_bucket{k="a\"b\\c",le="1"} 1`,
		`repro_h_bucket{k="a\"b\\c",le="2"} 2`,
		`repro_h_bucket{k="a\"b\\c",le="+Inf"} 3`,
		`repro_h_count{k="a\"b\\c"} 3`,
		"repro_c_total{shard=\"0\"} " + strconv.FormatFloat(exact, 'g', -1, 64),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// The exported value must parse back to the identical float64.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `repro_c_total{shard="0"} `) {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v != exact {
			t.Fatalf("counter value %v does not round-trip to %v", v, exact)
		}
	}
}
