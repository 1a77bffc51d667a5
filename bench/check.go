package main

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/mpsoc"
	"repro/internal/sched"
	"repro/internal/video"
)

// Up to keptSessions sessions of every pass run with KeepBitstreams, and
// the gate decodes the first keptGOPsPerSession GOPs each of them served.
const (
	keptSessions       = 4
	keptGOPsPerSession = 2
)

// checkPass is the correctness gate of an untraced run: every frame
// offered to a lossless workload was served; what the workload's own
// sessions emitted decodes to the quality the encoder claimed; and, where
// the sessions' order does not depend on the run, a sequential reference
// server emits the same bytes.
func checkPass(p *pass, o options) []string {
	var problems []string
	if attempted, failed := p.outcome(); p.wl.lossless && failed != 0 {
		problems = append(problems, fmt.Sprintf("%d of %d frames offered were not served", failed, attempted))
	}
	probs, err := decodeKept(p)
	if err != nil {
		problems = append(problems, "decode: "+err.Error())
	}
	problems = append(problems, probs...)
	if rounds := p.wl.replayRounds; rounds > 0 {
		if o.smoke {
			rounds = 2
		}
		probs, err := replay(p, rounds)
		if err != nil {
			problems = append(problems, "replay: "+err.Error())
		}
		problems = append(problems, probs...)
	}
	if len(problems) > 8 {
		problems = append(problems[:8], fmt.Sprintf("… and %d more", len(problems)-8))
	}
	return problems
}

// decodeKept decodes, with codec.Decoder, the bitstreams the pass's own
// serving path emitted for the sessions that kept them — concurrent,
// pooled, on a ladder rung or behind an agent, whatever the workload did —
// and compares each frame with its source: the PSNR must be the one the
// encoder reported, within 0.01 dB.
func decodeKept(p *pass) ([]string, error) {
	var problems []string
	sessions := 0
	cfg := sessionConfig(p.wl.mode, p.wl.deterministic)
	for i := range p.rec.units {
		decoders := make(map[int]*codec.Decoder)
		for _, c := range p.rec.units[i].keptGOPs {
			src := p.sourceOf(c)
			if src == nil || int(src.session.Load()) != c.session {
				return nil, fmt.Errorf("unit %d session %d: no source for its kept bitstreams", c.unit, c.session)
			}
			dec := decoders[c.session]
			if dec == nil {
				var err error
				if dec, err = codec.NewDecoder(cfg.Codec); err != nil {
					return nil, err
				}
				decoders[c.session] = dec
				sessions++
			}
			for _, fr := range c.report.Frames {
				got, err := dec.DecodeFrame(fr.Bitstream, c.report.Grid)
				if err != nil {
					return nil, fmt.Errorf("unit %d session %d frame %d: %w", c.unit, c.session, fr.Frame, err)
				}
				psnr, err := video.PSNR(src.Frame(fr.Frame).Y, got.Y)
				if err != nil {
					return nil, err
				}
				if d := math.Abs(video.CapPSNR(psnr, 100) - fr.PSNR); d > 0.01 {
					problems = append(problems, fmt.Sprintf("unit %d session %d frame %d: decodes to %.4f dB, the encoder reported %.4f dB", c.unit, c.session, fr.Frame, psnr, fr.PSNR))
				}
			}
		}
	}
	if sessions == 0 {
		return nil, fmt.Errorf("no session kept its bitstreams")
	}
	return problems, nil
}

// replay serves the first rounds rounds of a steady workload — same clips,
// same order, same starting positions — on a Sequential core.Server and
// demands the fleet's digests, GOP for GOP: the concurrent, pooled,
// memoized serving path emitted the reference path's bytes.
func replay(p *pass, rounds int) ([]string, error) {
	cfg := sessionConfig(p.wl.mode, p.wl.deterministic)
	alloc, _ := sched.Lookup(allocatorFor(p.wl.mode))
	clips := p.clips[:steadySessions]
	store, err := seedLUTs(clips, classLabels(clips), cfg)
	if err != nil {
		return nil, err
	}
	srv, err := core.NewServer(core.ServerConfig{
		Platform:    mpsoc.XeonE5_2667V4(),
		FPS:         frameFPS,
		Allocator:   core.AllocatorFunc(alloc),
		Sequential:  true,
		Calibration: core.CalibrationConfig{Enabled: true},
		Store:       store,
		TimeScale:   modelTimeScale,
	})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	served := append([]*clipSource(nil), p.srcs...)
	p.mu.Unlock()
	for _, s := range served {
		if _, err := srv.Submit(newClipSource(s.clip, s.start, rounds*gopSize, s.class, nil), cfg); err != nil {
			return nil, err
		}
	}
	var problems []string
	compared := 0
	for round := 0; round < rounds; round++ {
		out, err := srv.ServeGOP()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		for _, id := range sortedInts(out.AdmittedUsers) {
			chain := p.rec.units[0].digests[id]
			gop := out.GOPs[id]
			if gop == nil {
				continue
			}
			compared++
			if round >= len(chain) || chain[round] != gop.Digest {
				problems = append(problems, fmt.Sprintf("session %d GOP %d: the sequential replay's digest %x differs from the fleet's", id, round, gop.Digest))
			}
		}
	}
	if want := rounds * len(served); compared != want {
		problems = append(problems, fmt.Sprintf("the sequential replay served %d GOPs, expected %d", compared, want))
	}
	return problems, nil
}
