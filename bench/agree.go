package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAgree is the -agree N mode: it answers "do two sets of runs of the
// same code agree?" the way the acceptance driver asks it. Every workload
// is run in two alternating sets of n fresh processes (A1 B1 A2 B2 …), run
// i of both sets with seed base+i. A metric passes when each set's
// interquartile spread stays within its bound (setup_s is exempt from the
// spread test, as it is in the driver) and the second set's median is not
// worse than the first's by more than the bound.
func runAgree(w io.Writer, names []string, o options, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	allPass := true
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				ms, err := runChild(exe, name, o.seed+int64(i), o.seconds)
				if err != nil {
					return fmt.Errorf("%s run %d of set %c: %w", name, i+1, 'A'+s, err)
				}
				for k, v := range ms {
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
		fmt.Fprintf(w, "== %s  two sets of %d runs, seeds %d..%d, -seconds %d\n", name, n, o.seed, o.seed+int64(n)-1, o.seconds)
		fmt.Fprintf(w, "%-20s %12s %12s %8s %8s %8s %6s  %s\n", "metric", "median A", "median B", "spreadA", "spreadB", "B worse", "bound", "")
		for _, d := range endToEndDefs {
			a, b := sets[0][d.name], sets[1][d.name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			sa, sb, gap := spread(a), spread(b), worseBy(ma, mb, d.better)
			pass := gap <= d.bound && (d.name == "setup_s" || (sa <= d.bound && sb <= d.bound))
			verdict := "PASS"
			if !pass {
				verdict, allPass = "FAIL", false
			}
			fmt.Fprintf(w, "%-20s %12.5g %12.5g %8.4f %8.4f %+8.4f %6g  %s\n", d.name, ma, mb, sa, sb, gap, d.bound, verdict)
		}
	}
	if !allPass {
		return fmt.Errorf("two sets of runs of the same code disagree beyond a bound")
	}
	return nil
}

// runChild runs one untraced invocation in a fresh process and returns its
// end-to-end metrics.
func runChild(exe, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("the run reported incorrect outputs")
	}
	out := make(map[string]float64, len(res.Metrics))
	for k, m := range res.Metrics {
		out[k] = m.Value
	}
	return out, nil
}
