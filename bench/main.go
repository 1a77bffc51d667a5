// Command bench is the repository's benchmark of record: four fixture-free
// workloads driven through the public serving APIs, nine host-deflated
// end-to-end metrics, per-layer probes, a correctness gate. See README.md.
//
//	go run ./bench -seed 1                       # every workload
//	go run ./bench -workload churn_overload -trace 1 -out /tmp/spans
//	go run ./bench -agree 5                      # does it repeat?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// benchProcs is the GOMAXPROCS of a run of record.
const benchProcs = 2

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: steady_proposed, steady_baseline, churn_overload or dist_live (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input: medgen seeds, arrival schedule, tenant and session order")
	flag.IntVar(&o.seconds, "seconds", 20, "nominal length of the measured window (the acceptance driver passes run_seconds); sizes the fixed work, never cuts it short")
	trace := flag.Int("trace", 0, "1: run a traced quarter-length pass and the layer probes, and report the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory to write a traced pass's spans to (default: keep them in memory only)")
	agree := flag.Int("agree", 0, "N: run every workload in two alternating sets of N and check they agree within each metric's bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	o.trace = *trace != 0
	// The benchmark of record runs on two cores. The acceptance driver
	// starts it with a bare command line, so that is the default; an
	// explicit GOMAXPROCS in the environment is honoured.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(benchProcs)
	}

	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if *agree > 0 {
		if err := runAgree(os.Stdout, names, o, *agree); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := report(os.Stdout, res, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		ok = ok && len(res.problems) == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints one result: every metric by name with its unit, the
// correctness verdict, and — as the last line — the JSON object the
// acceptance driver reads, holding exactly the metrics of the run's mode.
func report(w io.Writer, res *result, o options) error {
	defs, mode := endToEndDefs, "end to end"
	if res.traced {
		defs, mode = perLayerDefs, "per layer"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d  (%s)\n", res.workload, o.seed, o.seconds, mode)
	listed := make(map[string]bool)
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := res.metrics.m[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("%s: metric %s measured in %q, declared in %q", res.workload, d.name, m.Unit, d.unit)
		}
		listed[d.name] = true
		out[d.name] = m
		line := fmt.Sprintf("%-34s %16.6f %-6s %s is better", d.name, m.Value, m.Unit, d.better)
		if d.bound > 0 {
			line += fmt.Sprintf(", bound %g", d.bound)
		}
		if note := res.metrics.notes[d.name]; note != "" {
			line += "  [" + note + "]"
		}
		fmt.Fprintln(w, line)
	}
	// Whatever else was measured (the host.* lines of an untraced run).
	for _, n := range res.metrics.names() {
		if !listed[n] {
			m := res.metrics.m[n]
			line := fmt.Sprintf("%-34s %16.6f %-6s", n, m.Value, m.Unit)
			if note := res.metrics.notes[n]; note != "" {
				line += "  [" + note + "]"
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	js, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(js)))
	return err
}
