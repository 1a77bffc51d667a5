// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index):
//
//	experiments -table1            Table I  (motion-estimation sweep)
//	experiments -fig3              Fig. 3   (tile structure + CPU time)
//	experiments -table2            Table II (users served, PSNR, bitrate)
//	experiments -fig4              Fig. 4   (power savings sweep)
//	experiments -lut               LUT convergence (Sec. III-D1 claim)
//	experiments -all               everything
//
// Fig. 3, Table II, Fig. 4 and the ablation print the same bytes on every
// run, host and GOMAXPROCS: workloads come from the seeded synthetic
// corpus, and every tile is priced by the committed work-count model
// (codec.TileStats.Work), not by a stopwatch. The clock is read in two
// places only, both printed and never decided on: Table I's host-speedup
// row and the host-time figure closing the LUT trace.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "run Table I (ME speedup/PSNR/bitrate sweep)")
		fig3     = flag.Bool("fig3", false, "run Fig. 3 (tile structure and per-tile CPU time)")
		table2   = flag.Bool("table2", false, "run Table II (served users, PSNR, bitrate)")
		fig4     = flag.Bool("fig4", false, "run Fig. 4 (power savings vs user count)")
		lut      = flag.Bool("lut", false, "run the workload-LUT convergence experiment")
		ablation = flag.Bool("ablation", false, "run the pipeline ablation study (DESIGN.md §3)")
		all      = flag.Bool("all", false, "run everything")
		frames   = flag.Int("frames", 0, "override Table I frame count (paper: 400)")
		queue    = flag.Int("queue", 0, "override Table II queue length")
	)
	flag.Parse()
	if !*table1 && !*fig3 && !*table2 && !*fig4 && !*lut && !*ablation && !*all {
		flag.Usage()
		os.Exit(2)
	}
	run := func(name string, f func() error) {
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *table1 || *all {
		run("Table I", func() error {
			opt := experiments.DefaultTable1Options()
			if *frames > 0 {
				opt.Frames = *frames
				opt.Video.Frames = *frames
			}
			res, err := experiments.RunTable1(opt)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		})
	}
	if *fig3 || *all {
		run("Fig. 3", func() error {
			res, err := experiments.RunFig3(experiments.DefaultFig3Options())
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		})
	}
	if *table2 || *all {
		run("Table II", func() error {
			opt := experiments.DefaultTable2Options()
			if *queue > 0 {
				opt.QueueLen = *queue
			}
			res, err := experiments.RunTable2(opt)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		})
	}
	if *fig4 || *all {
		run("Fig. 4", func() error {
			res, err := experiments.RunFig4(experiments.DefaultFig4Options())
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		})
	}
	if *lut || *all {
		run("LUT convergence", func() error {
			res, err := experiments.RunLUT(experiments.DefaultLUTOptions())
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		})
	}
	if *ablation || *all {
		run("Ablation", func() error {
			res, err := experiments.RunAblation(experiments.DefaultAblationOptions())
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		})
	}
}
