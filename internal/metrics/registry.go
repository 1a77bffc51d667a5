// Package metrics is the fleet's live observability layer: a
// bounded-cardinality metrics registry with Prometheus text exposition,
// a telemetry sink (Sink) that translates the fleet's event stream
// (internal/serve) into registry series, and a CostModel pricing the
// platform ledger into dollars and per-GOP QoE scores.
//
// The registry is deliberately small and dependency-free. Its one hard
// design rule is bounded cardinality: every metric declares its label
// names up front, label values come from fleet-bounded sets (shard
// index, workload *class* — never a session id, which grows without
// bound), and the registry itself refuses to allocate past maxSeries,
// counting refused series instead of growing. A scrape of a fleet that
// has served a million sessions is the same size as one that served
// ten.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// maxSeries caps the total number of label-value combinations across all
// metrics of a registry (histogram series count as one each). Past the
// cap, new combinations are dropped and counted
// (repro_metrics_dropped_series_total) instead of allocated — the
// registry's memory is bounded no matter what labels arrive.
const maxSeries = 4096

// Registry holds metric families and renders them in Prometheus text
// exposition format. Safe for concurrent use: updates and scrapes may
// race freely.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order
	byName   map[string]*family
	series   int
	dropped  int
	// agent, when non-empty, is the value of the constant "agent" label
	// every series carries first: the distributed mode's per-node dimension.
	agent string
}

// newRegistry builds a registry; a non-empty agent labels every series
// with it.
func newRegistry(agent string) *Registry {
	return &Registry{byName: make(map[string]*family), agent: agent}
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with a fixed label-name set.
type family struct {
	name    string
	help    string
	k       kind
	labels  []string
	buckets []float64 // histogramKind only, ascending, +Inf implicit
	series  map[string]*series
	order   []string // series keys in first-seen order
}

// series is one label-value combination's state.
type series struct {
	labelValues []string
	value       float64 // counter/gauge
	// histogram state
	bucketCounts []uint64
	sum          float64
	count        uint64
}

// register creates or fetches a family, failing loudly on a redefinition
// with different shape — two call sites disagreeing about a metric's
// labels is a programming error, not runtime input.
func (r *Registry) register(name, help string, k kind, buckets []float64, labels []string) *family {
	if r.agent != "" {
		labels = append([]string{"agent"}, labels...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.k != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s redefined with different type or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: %s redefined with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		k:       k,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// getLocked fetches or allocates the series for the given label values,
// after the agent label's, enforcing the maxSeries bound. Returns nil when
// the bound refused the allocation. Caller must hold r.mu.
func (r *Registry) getLocked(f *family, labelValues []string) *series {
	if r.agent != "" {
		labelValues = append(append(make([]string, 0, 1+len(labelValues)), r.agent), labelValues...)
	}
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s given %d label values for %d labels",
			f.name, len(labelValues), len(f.labels)))
	}
	key := strings.Join(labelValues, "\xff")
	if s, ok := f.series[key]; ok {
		return s
	}
	if r.series >= maxSeries {
		r.dropped++
		return nil
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	if f.k == histogramKind {
		s.bucketCounts = make([]uint64, len(f.buckets))
	}
	f.series[key] = s
	f.order = append(f.order, key)
	r.series++
	return s
}

// counter is a monotonically increasing metric. set exists for the
// ledger pattern: when an authoritative cumulative total already exists
// (core's mpsoc.Totals), setting the counter to it is bit-exact where
// re-accumulating deltas might not be.
type counter struct {
	r *Registry
	f *family
}

// counter registers (or fetches) a counter family.
func (r *Registry) counter(name, help string, labels ...string) counter {
	return counter{r, r.register(name, help, counterKind, nil, labels)}
}

// add increments the labeled series by v.
func (c counter) add(v float64, labelValues ...string) {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	if s := c.r.getLocked(c.f, labelValues); s != nil {
		s.value += v
	}
}

// set pins the labeled series to the cumulative value v.
func (c counter) set(v float64, labelValues ...string) {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	if s := c.r.getLocked(c.f, labelValues); s != nil {
		s.value = v
	}
}

// gauge is a point-in-time value.
type gauge struct {
	r *Registry
	f *family
}

// gauge registers (or fetches) a gauge family.
func (r *Registry) gauge(name, help string, labels ...string) gauge {
	return gauge{r, r.register(name, help, gaugeKind, nil, labels)}
}

// set pins the labeled series to v.
func (g gauge) set(v float64, labelValues ...string) {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	if s := g.r.getLocked(g.f, labelValues); s != nil {
		s.value = v
	}
}

// histogram is a fixed-bucket distribution.
type histogram struct {
	r *Registry
	f *family
}

// histogram registers (or fetches) a histogram family with the given
// ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) histogram(name, help string, buckets []float64, labels ...string) histogram {
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("metrics: %s buckets not ascending", name))
		}
	}
	return histogram{r, r.register(name, help, histogramKind, buckets, labels)}
}

// observe records one sample. Non-finite samples are dropped — a NaN
// would poison the sum and every quantile estimate built on it.
func (h histogram) observe(v float64, labelValues ...string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	s := h.r.getLocked(h.f, labelValues)
	if s == nil {
		return
	}
	for i, le := range h.f.buckets {
		if v <= le {
			s.bucketCounts[i]++
		}
	}
	s.sum += v
	s.count++
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one line per series,
// families in registration order and series in first-seen order. The
// registry's own dropped-series counter is appended so a scrape always
// shows whether the cardinality bound fired.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if len(f.order) == 0 {
			continue
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"# HELP repro_metrics_dropped_series_total Series refused by the registry's MaxSeries bound.\n"+
			"# TYPE repro_metrics_dropped_series_total counter\n"+
			"repro_metrics_dropped_series_total %d\n", r.dropped)
	return err
}

func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.k); err != nil {
		return err
	}
	for _, key := range f.order {
		s := f.series[key]
		switch f.k {
		case histogramKind:
			// bucketCounts are cumulative (observe increments every bucket
			// whose bound covers the sample), as the exposition format wants.
			for i, le := range f.buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, labelString(f.labels, s.labelValues, "le", formatFloat(le)), s.bucketCounts[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(f.labels, s.labelValues, "le", "+Inf"), s.count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
				f.name, labelString(f.labels, s.labelValues, "", ""), formatFloat(s.sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				f.name, labelString(f.labels, s.labelValues, "", ""), s.count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.name, labelString(f.labels, s.labelValues, "", ""), formatFloat(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelString renders {a="x",b="y"} (empty string with no labels), with
// an optional extra label appended (the histogram "le").
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatFloat renders a value round-trip exactly: strconv's -1 precision
// picks the shortest representation that parses back to the identical
// float64, which is what lets the reconciliation tests demand exact
// equality between scraped and in-process totals.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
