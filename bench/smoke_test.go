package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the root BENCHMARK.json, as far as the smoke test reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the program must declare the same workloads and the
// same metrics, field for field.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: declared %+v, the program has %s %s %s %g", i, m, d.name, d.unit, d.better, d.bound)
		}
		// Timings hold 0.10 after deflation or are demoted, never widened.
		// setup_s alone carries the driver's widest bound: its contract
		// asks for that, and exempts it from the steadiness test. Counts
		// may be as wide as the driver allows.
		limit := 0.25
		if m.Unit == "ms" || m.Unit == "1/s" {
			limit = 0.10
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %g outside (0, %g]", m.Name, m.Bound, limit)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics declared, the program has %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, m := range bf.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: declared %+v, the program has %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

// Every workload, in both modes, through the code path the benchmark of
// record takes — at a handful of rounds. An API change that breaks the
// benchmark breaks this test, not the next performance PR.
func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	began := time.Now()
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl.Name, seed: 1, seconds: 1, trace: traced, smoke: true}
			runBegan := time.Now()
			res, err := runWorkload(o)
			t.Logf("%s trace=%v took %v", wl.Name, traced, time.Since(runBegan).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			for _, p := range res.problems {
				t.Errorf("%s trace=%v: incorrect: %s", wl.Name, traced, p)
			}
			var buf bytes.Buffer
			if err := report(&buf, res, o); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", wl.Name, traced, err)
			}
			// attempted counts frames offered, failed those never served.
			if !last.Correct || last.Attempted < 1 || last.Failed < 0 || last.Failed >= last.Attempted {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, last.Correct, last.Attempted, last.Failed)
			}
			if workloadByName(wl.Name).lossless && last.Failed != 0 {
				t.Errorf("%s trace=%v: %d frames of a lossless workload were not served", wl.Name, traced, last.Failed)
			}
			if served := last.Metrics["served_share"].Value * float64(last.Attempted); !traced && math.Abs(served-float64(last.Attempted-last.Failed)) > 0.5 {
				t.Errorf("%s: served_share says %.1f frames served, attempted−failed says %d", wl.Name, served, last.Attempted-last.Failed)
			}
			want := make(map[string]string)
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result object, %d declared", wl.Name, traced, len(last.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := last.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing from the result object", wl.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s in %q, declared %q", wl.Name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl.Name, traced, name, m.Value)
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) > 0 && f[0] == name {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%v: %s printed %d times", wl.Name, traced, name, printed)
				}
			}
			if !traced {
				for _, m := range bf.EndToEnd {
					if last.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
					}
				}
			}
		}
	}
	// The budget is 20 s on an idle two-core box; it is logged, not
	// asserted, because tier-1 runs this package beside another one.
	t.Logf("smoke test took %v", time.Since(began).Round(time.Millisecond))
}
