// Quickstart: generate a synthetic bio-medical video, run the paper's
// content-aware transcoding pipeline on it, and print what each stage
// decided — the minimal end-to-end tour of the single-session API. For
// the serving entry point — many users across many platform shards —
// see serve.New (README.md and examples/telemedicine).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/workload"
)

func main() {
	// 1. A synthetic MRI-like study: 640×480 @ 24 Hz, rotating slowly the
	//    way a clinician reviews a volume (medgen documents how this
	//    substitutes for the paper's anonymized clinical videos).
	videoCfg := medgen.Default()
	videoCfg.Class = medgen.Brain
	videoCfg.Motion = medgen.Rotate
	videoCfg.Frames = 24
	gen, err := medgen.NewGenerator(videoCfg)
	if err != nil {
		log.Fatal(err)
	}
	src, err := core.SourceFromGenerator(gen, videoCfg.Frames, videoCfg.FPS, videoCfg.Class.String())
	if err != nil {
		log.Fatal(err)
	}

	// 2. A transcoding session with the paper's default pipeline: CV/motion
	//    analysis → content-aware re-tiling → per-tile QP + motion search →
	//    encode, with the workload LUT learning per-tile CPU times.
	sess, err := core.NewSession(0, src, core.DefaultSessionConfig(), workload.NewLUT())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Encode GOP by GOP and look at the decisions.
	for !sess.Finished() {
		gop, err := sess.EncodeGOP()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GOP %d: %2d tiles  PSNR %.1f dB  %.0f kbps  CPU %v\n",
			gop.Index, gop.Grid.NumTiles(), gop.MeanPSNR, gop.MeanKbps, gop.CPUTime.Round(1000))
		for _, tc := range gop.Contents {
			fmt.Printf("   tile %2d %-18s %-6s texture=%-6s motion=%s\n",
				tc.Tile.Index, tc.Tile.Rect, tc.Tile.Region, tc.Texture, tc.Motion)
		}
	}
}
