package metrics

import "repro/internal/mpsoc"

// CostModel prices the platform ledger into dollars. Both rates default
// to zero — a fleet without a cost model exports zero-dollar series
// rather than omitting them, so dashboards never have to special-case
// absence.
type CostModel struct {
	// DollarsPerJoule converts the simulated energy ledger into money —
	// the electricity (and amortized cooling) price of a joule.
	DollarsPerJoule float64
	// DollarsPerDeadlineMiss is the service-credit cost of one missed
	// frame deadline: the paper's QoS target is real-time throughput, so
	// a miss is a billable SLO event, not just a quality blemish.
	DollarsPerDeadlineMiss float64
}

// cost prices a cumulative platform ledger. Deterministic and exact for
// a given Totals: one multiply-add per term, no accumulation of its own
// — which is what lets the exporter tests demand bit-exact equality
// between the scraped dollar total and the one derived from
// mpsoc.Totals directly.
func (m CostModel) cost(t mpsoc.Totals) float64 {
	return t.EnergyJ*m.DollarsPerJoule + float64(t.DeadlineMisses)*m.DollarsPerDeadlineMiss
}

// qoeInput describes one served GOP from the viewer's side: the encoded
// quality, the admission-ladder degradations in force when it was
// served, and the deadline misses of the round that served it.
type qoeInput struct {
	// PSNRdB is the GOP's mean luma PSNR.
	PSNRdB float64
	// QPOffset is the session's accumulated admission-ladder QP
	// degradation (0 at full service).
	QPOffset int
	// DegradedTiling marks the ladder's uniform-tiling fallback rung.
	DegradedTiling bool
	// RateHalved marks the frame-rate rung: the session is served every
	// other GOP.
	RateHalved bool
	// DeadlineMisses is the serving round's platform-level miss count —
	// shared by every GOP of the round, since a slot overrun stalls all
	// of them.
	DeadlineMisses int
}

// qoeScore maps a served GOP to [0, 1]: 1 is transparent quality at
// full service rate with no misses; 0 is unwatchable. The base term is
// PSNR mapped linearly over 20–45 dB (below 20 dB artifacts dominate,
// above 45 dB differences are imperceptible); each active degradation
// then subtracts a fixed penalty — QP offsets cost 2% per step, the
// tiling fallback 5%, rate halving 15% (half the frames is the
// most visible degradation short of artifacts), and each deadline miss
// 5%. Penalties are calibrated so a fully degraded session still beats
// a rejected one (score 0) — matching the admission ladder's premise
// that degraded service is better than none.
func qoeScore(in qoeInput) float64 {
	score := (in.PSNRdB - 20) / 25
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	score -= 0.02 * float64(in.QPOffset)
	if in.DegradedTiling {
		score -= 0.05
	}
	if in.RateHalved {
		score -= 0.15
	}
	score -= 0.05 * float64(in.DeadlineMisses)
	if score < 0 {
		score = 0
	}
	return score
}
