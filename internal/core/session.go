package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/motion"
	"repro/internal/quality"
	"repro/internal/tiling"
	"repro/internal/transform"
	"repro/internal/video"
	"repro/internal/workload"
)

// Mode selects the transcoding strategy of a session.
type Mode int

const (
	// ModeProposed is the paper's content-aware pipeline.
	ModeProposed Mode = iota
	// ModeBaseline reproduces [19] (Khan et al.): uniform capacity-sized
	// tiling with one thread per core, a fixed encoding configuration with
	// the reference encoder's full-quality TZ motion search (no
	// content-aware search selection), all active cores at fmax.
	ModeBaseline
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeBaseline {
		return "baseline"
	}
	return "proposed"
}

// SessionConfig bundles all per-session parameters. Zero-value fields are
// replaced by the referenced packages' defaults in NewSession.
type SessionConfig struct {
	Mode        Mode
	Codec       codec.Config
	Analysis    analysis.Config
	Retile      tiling.RetileConfig
	Policy      motion.PolicyConfig
	Constraints quality.Constraints
	// Workers bounds tile-encoding parallelism inside one frame (1 = off).
	Workers int
	// BaselineTiles is the baseline's uniform tile count, sized by the
	// caller to core capacity (0 → defaultBaselineTiles).
	BaselineTiles int
	// BaselineQP is the fixed QP of the baseline configuration (0 → 32).
	BaselineQP int
	// BaselineWindow is the baseline's TZ search window (0 → 64).
	BaselineWindow int
	// TimeModel prices a tile's work counters as the CPU time recorded in
	// the workload LUT (and hence used for estimation, admission and
	// allocation). Nil selects codec.TileStats.Work at the codec's fitted
	// search weight, 220 ns per evaluation; the experiment harness weights
	// search for Kvazaar instead. Either way no decision reads the host's
	// stopwatch. Excluded from the wire format (a func cannot cross a
	// process boundary; the model shapes LUT bookkeeping, never encoded
	// bits) — the receiving server prices with its own.
	TimeModel func(codec.TileStats) time.Duration `json:"-"`
	// DemandHint seeds the session's core-demand estimate for load
	// reporting (Server.LoadReport) before its first round competes —
	// the serving layer's placement estimate rides in here so a shard's
	// demand reflects a just-placed session immediately. The allocator's
	// sched.Result.DemandCores replaces it every round the session
	// competes; 0 leaves the pre-first-round demand at the one-core floor.
	DemandHint int
	// KeepBitstreams retains each frame's encoded payload in
	// FrameReport.Bitstream, so callers can decode-verify or persist the
	// output. Off by default: a long-running service would otherwise hold
	// every encoded byte in memory.
	KeepBitstreams bool

	// Ablation switches (DESIGN.md §3): each removes one contribution
	// from the proposed pipeline while keeping the rest intact, so its
	// individual effect is measurable. All are no-ops in baseline mode.

	// DisableRetile replaces the content-aware re-tiler with a uniform
	// 4×4 grid.
	DisableRetile bool
	// DisableQPAdapt freezes per-tile QPs at the texture defaults
	// (Algorithm 1 off).
	DisableQPAdapt bool
	// DisableFastME replaces the GOP-aware search policy with TZ search
	// (window 64) on every tile.
	DisableFastME bool
}

// DefaultSessionConfig returns the paper's evaluation configuration.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{
		Mode:        ModeProposed,
		Codec:       codec.DefaultConfig(),
		Analysis:    analysis.DefaultConfig(),
		Retile:      tiling.DefaultRetileConfig(),
		Policy:      motion.DefaultPolicyConfig(),
		Constraints: quality.DefaultConstraints(),
		Workers:     1,
	}
}

// FrameReport is the outcome of encoding one frame.
type FrameReport struct {
	Frame      int
	Type       codec.FrameType
	Bits       int
	PSNR       float64
	Kbps       float64
	EncodeTime time.Duration
	Tiles      []codec.TileStats
	// Digest is an FNV-1a hash of the frame's encoded bitstream (all tile
	// payloads in grid order). Encoded bytes are deterministic for a given
	// session history, so equal digests across serving strategies prove
	// the parallel serving loop is bit-identical to the sequential one.
	Digest uint64
	// Bitstream is the frame's encoded payload, retained only when
	// SessionConfig.KeepBitstreams is set (nil otherwise).
	Bitstream *codec.Bitstream
}

// GOPReport aggregates one group of pictures.
type GOPReport struct {
	// Index is the GOP number (0-based).
	Index int
	// Grid is the tile structure used for the whole GOP.
	Grid *tiling.Grid
	// Contents are the per-tile content descriptors from stage A.
	Contents []analysis.TileContent
	// Frames holds the per-frame outcomes.
	Frames []FrameReport
	// MeanPSNR, MeanKbps aggregate the GOP.
	MeanPSNR float64
	MeanKbps float64
	// CPUTime is the total encode CPU time of the GOP.
	CPUTime time.Duration
	// Work is the GOP's modelled encode work, the sum of the prices learn
	// feeds the LUT (Session.tileWork per tile), stamped when the LUT
	// learns the GOP: the currency stage D2 prices a round in, the same
	// for one seed on every run and host.
	Work time.Duration
	// Digest chains the frames' bitstream digests (see FrameReport.Digest).
	Digest uint64
}

// Session is one user's online transcoding of one video through the Fig. 2
// pipeline. A session is single-goroutine: the Server drives each session
// from exactly one goroutine per round (sessions of one server run
// concurrently with each other; tile-level parallelism happens inside the
// codec). The only cross-session shared state is the workload LUT, which
// is internally synchronized and order-insensitive (mean-based).
type Session struct {
	ID      int
	cfg     SessionConfig
	src     FrameSource
	enc     *codec.Encoder
	lut     *workload.LUT
	adapter *quality.Adapter
	policy  *motion.GOPPolicy

	// Per-GOP state (stage B output).
	grid     *tiling.Grid
	contents []analysis.TileContent
	qps      []int
	// preparedFor is the frame index stages A–C last ran for (-1 before
	// the first GOP). It keeps estimation and encoding in lockstep: the
	// estimate-ahead stage prepares the upcoming GOP once, and the encode
	// path reuses that preparation instead of redoing it — and, crucially,
	// a round that estimates after a completed GOP re-runs A–C for the
	// *new* GOP instead of pricing threads on the previous GOP's grid.
	preparedFor int

	// Baseline state.
	baselineGrid *tiling.Grid

	// qpOffset is the admission ladder's service-level degradation: a
	// non-negative offset added to every tile's QP (both in the encode
	// parameters and in the stage-D1 estimation keys), trading quality for
	// a smaller workload so an overloaded platform can still admit the
	// session. 0 outside overload.
	qpOffset int
	// degraded records that the admission ladder replaced the content
	// -aware re-tiler with the uniform fallback grid for this session.
	degraded bool
	// rateHalved records the admission ladder's frame-rate rung: the
	// server serves the session every other GOP round (it sits out the
	// round after each GOP it encodes), halving its delivered frame rate
	// so a heavily-overloaded platform keeps it connected. The encoded
	// output is unaffected, so the rung is reversible: the server's
	// headroom recovery (AdmissionConfig.RecoverAfterRounds) clears it.
	rateHalved bool

	frame int // next frame to encode
}

// NewSession validates the configuration and builds a session. The LUT is
// shared across sessions of the same body-part class (see workload.Store).
func NewSession(id int, src FrameSource, cfg SessionConfig, lut *workload.LUT) (*Session, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil frame source")
	}
	if lut == nil {
		return nil, fmt.Errorf("core: nil workload LUT")
	}
	// Frame 0 decides the geometry. It is the submitter's goroutine that
	// renders it here, so a source that panics costs the submission, not
	// the caller.
	var f0 *video.Frame
	if err := guardSession(id, func() error {
		if f0 = src.Frame(0); f0 == nil {
			return fmt.Errorf("source has no frame 0")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if cfg.Codec.Width == 0 {
		cfg.Codec = codec.DefaultConfig()
	}
	cfg.Codec.Width, cfg.Codec.Height = f0.Width(), f0.Height()
	cfg.Codec.FPS = src.FPS()
	if err := cfg.Codec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// A capacity tile smaller than one coding block is no tile; the bound
	// also keeps factorize's search proportional to the frame, whatever a
	// config from the wire asks for.
	if blocks := (f0.Width() / cfg.Codec.BlockSize) * (f0.Height() / cfg.Codec.BlockSize); cfg.BaselineTiles > blocks {
		return nil, fmt.Errorf("core: %d baseline tiles on a frame of %d coding blocks", cfg.BaselineTiles, blocks)
	}
	if cfg.BaselineQP == 0 {
		cfg.BaselineQP = 32
	}
	if cfg.BaselineWindow == 0 {
		cfg.BaselineWindow = 64
	}
	// No displacement reaches past the frame, and a raster search costs
	// window² evaluations: a window from the wire must not set that cost.
	// (The policy's follow windows are bounded by the two checked here.)
	reach := f0.Width() + f0.Height()
	if cfg.BaselineWindow < 0 || cfg.BaselineWindow > reach || cfg.Policy.MaxWindow > reach || cfg.Policy.LowFirstWindow > reach {
		return nil, fmt.Errorf("core: search window beyond the %dx%d frame (baseline %d, policy %+v)",
			f0.Width(), f0.Height(), cfg.BaselineWindow, cfg.Policy)
	}
	enc, err := codec.NewEncoder(cfg.Codec)
	if err != nil {
		return nil, err
	}
	adapter, err := quality.NewAdapter(cfg.Constraints, 1)
	if err != nil {
		return nil, err
	}
	policy, err := motion.NewGOPPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if err := cfg.Analysis.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Retile.Validate(f0.Width(), f0.Height()); err != nil {
		return nil, err
	}
	return &Session{
		ID: id, cfg: cfg, src: src, enc: enc, lut: lut,
		adapter: adapter, policy: policy, preparedFor: -1,
	}, nil
}

// Finished reports whether the whole video has been encoded.
func (s *Session) Finished() bool { return s.frame >= s.src.Len() }

// effectiveQP applies the service-level QP offset within codec bounds.
func (s *Session) effectiveQP(qp int) int {
	qp += s.qpOffset
	if qp < transform.MinQP {
		qp = transform.MinQP
	}
	if qp > transform.MaxQP {
		qp = transform.MaxQP
	}
	return qp
}

// atGOPBoundary reports whether the next frame starts a new GOP (or the
// video is finished) — the only positions a session may migrate from.
func (s *Session) atGOPBoundary() bool {
	return s.Finished() || s.cfg.Codec.FrameInGOP(s.frame) == 0
}

// adopt re-homes the session on a new server during migration: a fresh
// shard-local id, the target's per-class workload LUT (estimates and
// observations now flow through the target's store). Everything else —
// configuration, encoder reference state, QP adapter, motion policy,
// degradations — rides along untouched, so the encoded bitstream
// continues bit-identically.
func (s *Session) adopt(id int, lut *workload.LUT) {
	s.ID = id
	s.lut = lut
}

// degrade switches the session to the uniform fallback tiling (the
// admission ladder's first rung, applied to newcomers when the platform
// cannot admit everyone) and re-runs stages A–C so subsequent estimation
// prices the degraded grid. Only legal at a GOP boundary — mid-GOP the
// tile structure is pinned by the frames already encoded.
func (s *Session) degrade() error {
	if s.cfg.Codec.FrameInGOP(s.frame) != 0 {
		return fmt.Errorf("core: session %d cannot degrade mid-GOP (frame %d)", s.ID, s.frame)
	}
	s.degraded = true
	s.cfg.DisableRetile = true
	s.grid = nil
	s.preparedFor = -1
	return s.prepareForEstimation()
}

// prepareGOP runs stages A–C for the GOP starting at the current frame:
// evaluate motion and texture, re-tile, reset per-tile QPs and the motion
// policy's learned directions.
func (s *Session) prepareGOP() error {
	cur := s.src.Frame(s.frame)
	// The "previous frame" of stage A is the encoder's reconstructed
	// reference — exactly what an online transcoder has in hand.
	ev, err := analysis.NewEvaluator(s.cfg.Analysis, cur.Y, refPlaneOf(s.enc))
	if err != nil {
		return err
	}

	if s.cfg.Mode == ModeBaseline {
		grid, err := s.baselineGridFor(cur.Width(), cur.Height())
		if err != nil {
			return err
		}
		s.grid = grid
	} else if s.cfg.DisableRetile {
		grid, err := tiling.Uniform(cur.Width(), cur.Height(), 4, 4)
		if err != nil {
			return err
		}
		s.grid = grid
	} else {
		grid, err := tiling.Retile(cur.Width(), cur.Height(), s.cfg.Retile, ev)
		if err != nil {
			return err
		}
		s.grid = grid
	}

	s.contents, err = ev.EvaluateGrid(s.grid)
	if err != nil {
		return err
	}
	s.policy.Reset()
	s.qps = make([]int, len(s.grid.Tiles))
	for i, tc := range s.contents {
		if s.cfg.Mode == ModeBaseline {
			s.qps[i] = s.cfg.BaselineQP
		} else {
			s.qps[i] = s.adapter.ResetTile(i, tc.Texture)
		}
	}
	s.preparedFor = s.frame
	return nil
}

// defaultBaselineTiles is [19]'s tile count when the caller sizes none:
// its two-thread floor, which keeps parallel slack on any host.
const defaultBaselineTiles = 2

// baselineGridFor derives the [19] tiling: BaselineTiles uniform tiles
// (one thread per core), split to the frame's aspect ratio.
func (s *Session) baselineGridFor(w, h int) (*tiling.Grid, error) {
	if s.baselineGrid != nil {
		return s.baselineGrid, nil
	}
	n := s.cfg.BaselineTiles
	if n <= 0 {
		n = defaultBaselineTiles
	}
	nx, ny := factorize(n, w, h)
	grid, err := tiling.Uniform(w, h, nx, ny)
	if err != nil {
		return nil, err
	}
	s.baselineGrid = grid
	return grid, nil
}

// factorize picks an nx×ny split with nx·ny ≥ n tiles matching the frame
// aspect ratio as closely as possible.
func factorize(n, w, h int) (nx, ny int) {
	if n < 1 {
		n = 1
	}
	bestNX, bestNY, bestWaste := n, 1, math.MaxFloat64
	for ty := 1; ty <= n; ty++ {
		tx := (n + ty - 1) / ty
		if tx*ty < n {
			tx++
		}
		// Aspect mismatch of resulting tiles vs square.
		tw, th := float64(w)/float64(tx), float64(h)/float64(ty)
		r := tw / th
		if r < 1 {
			r = 1 / r
		}
		waste := r + 0.1*float64(tx*ty-n)
		if waste < bestWaste {
			bestNX, bestNY, bestWaste = tx, ty, waste
		}
	}
	return bestNX, bestNY
}

// tileParams assembles stage C's per-tile configuration for the next frame.
func (s *Session) tileParams() []codec.TileParams {
	frameInGOP := s.cfg.Codec.FrameInGOP(s.frame)
	params := make([]codec.TileParams, len(s.grid.Tiles))
	for i, tc := range s.contents {
		if s.cfg.Mode == ModeBaseline {
			params[i] = codec.TileParams{
				QP:       s.effectiveQP(s.cfg.BaselineQP),
				Searcher: motion.TZSearch{},
				Window:   s.cfg.BaselineWindow,
			}
			continue
		}
		if s.cfg.DisableFastME {
			params[i] = codec.TileParams{QP: s.effectiveQP(s.qps[i]), Searcher: motion.TZSearch{}, Window: 64}
			continue
		}
		searcher, window := s.policy.Choose(i, tc.Motion == analysis.MotionHigh, frameInGOP)
		params[i] = codec.TileParams{
			QP:       s.effectiveQP(s.qps[i]),
			Searcher: searcher,
			Window:   window,
			Pred:     s.policy.PredFor(i, frameInGOP),
		}
	}
	return params
}

// encodeNextFrame advances the session by one frame: runs stages A–C at
// GOP boundaries, encodes, feeds measurements back into the QP adapter and
// the motion policy, and returns the frame report. The workload LUT learns
// the frame later, with the rest of its GOP (see learn). ctx cancels the
// encode; workers is the per-call tile-worker budget (≤ 0 falls back to
// the session's configured Workers). The serving loop passes each round's
// allocated core count here, so intra-frame parallelism follows the
// allocation instead of a global constant. On error — cancellation
// included — the session does not advance, so the frame can be retried.
func (s *Session) encodeNextFrame(ctx context.Context, workers int) (*FrameReport, error) {
	if s.Finished() {
		return nil, fmt.Errorf("core: session %d already finished", s.ID)
	}
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	frameInGOP := s.cfg.Codec.FrameInGOP(s.frame)
	if (s.grid == nil || frameInGOP == 0) && s.preparedFor != s.frame {
		if err := s.prepareGOP(); err != nil {
			return nil, err
		}
	}
	params := s.tileParams()
	f := s.src.Frame(s.frame)
	stats, bs, err := s.enc.EncodeFrameContext(ctx, f, s.grid, params, workers)
	if err != nil {
		return nil, err
	}

	// Feed back: motion policy direction (first frame of GOP), QP
	// adaptation (Algorithm 1, every frame).
	if frameInGOP == 0 && stats.Type == codec.FrameP {
		for i, ts := range stats.Tiles {
			s.policy.Observe(i, ts.MeanMV)
		}
	}
	if s.cfg.Mode == ModeProposed && !s.cfg.DisableQPAdapt {
		for i, ts := range stats.Tiles {
			// Tile bitrate extrapolated to a full-frame-share rate.
			share := float64(ts.Tile.Area()) / float64(f.Width()*f.Height())
			kbps := float64(stats.Bits) * s.src.FPS() / 1e3 * share
			s.qps[i] = s.adapter.Adapt(i, quality.Measurement{
				PSNR:        ts.PSNR,
				BitrateKbps: kbps,
			}, s.contents[i].Texture)
		}
	}

	rep := &FrameReport{
		Frame:      s.frame,
		Type:       stats.Type,
		Bits:       stats.Bits,
		PSNR:       stats.PSNR,
		Kbps:       stats.Kbps(s.src.FPS()),
		EncodeTime: stats.EncodeTime,
		Tiles:      stats.Tiles,
		Digest:     bitstreamDigest(bs),
	}
	if s.cfg.KeepBitstreams {
		rep.Bitstream = bs
	}
	s.frame++
	return rep, nil
}

// tileWork prices a tile through the session's TimeModel, or without one
// through the work model at the codec's fitted search weight — the one
// value the LUT learns.
func (s *Session) tileWork(ts codec.TileStats) time.Duration {
	if s.cfg.TimeModel != nil {
		return s.cfg.TimeModel(ts)
	}
	return ts.Work(220)
}

// bitstreamDigest hashes a frame's tile payloads (FNV-1a, grid order).
func bitstreamDigest(bs *codec.Bitstream) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(bs.Type))
	h.Write(buf[:])
	for _, tile := range bs.Tiles {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tile)))
		h.Write(buf[:])
		h.Write(tile)
	}
	return h.Sum64()
}

// EncodeGOP encodes the next full GOP (or the remaining frames if fewer),
// aggregates the reports, and feeds every tile into the session's
// workload LUT.
func (s *Session) EncodeGOP() (*GOPReport, error) {
	return s.EncodeGOPContext(context.Background(), 0)
}

// EncodeGOPContext is EncodeGOP with cancellation and a per-call
// tile-worker budget (≤ 0 falls back to the session's configured Workers).
// Cancellation is honoured at frame boundaries: frames already encoded
// stay encoded and the session remains mid-GOP. A subsequent call resumes
// from that position and encodes only up to the current GOP's boundary,
// so one report never spans two GOPs (or two tile grids). The LUT learns
// only a GOP that completes. It is the path for a session outside a
// server; a server encodes without learning and learns in its settle
// order instead.
func (s *Session) EncodeGOPContext(ctx context.Context, workers int) (*GOPReport, error) {
	gop, err := s.encodeGOP(ctx, workers)
	if err != nil {
		return nil, err
	}
	s.learn(gop, nil)
	return gop, nil
}

// learn feeds every tile of every frame of gop into the session's LUT, in
// frame order: the LUT's one write site. The EWMA update is
// order-sensitive, so its two callers run it in a fixed order: a bare
// session's EncodeGOPContext after its own GOP, and Server.settle in
// ascending session order. It sums the same prices into gop.Work and, when
// tileSums is non-nil, into tileSums[i] for tile index i, so each served
// tile is priced here once: a TimeModel may count its calls.
func (s *Session) learn(gop *GOPReport, tileSums []time.Duration) {
	for _, fr := range gop.Frames {
		for i, ts := range fr.Tiles {
			w := s.tileWork(ts)
			s.lut.Observe(tileKey(ts.Tile, gop.Contents[i], ts.QP, ts.Window), w)
			gop.Work += w
			if tileSums != nil {
				tileSums[i] += w
			}
		}
	}
}

// encodeGOP is EncodeGOPContext without the LUT update.
func (s *Session) encodeGOP(ctx context.Context, workers int) (*GOPReport, error) {
	if s.Finished() {
		return nil, fmt.Errorf("core: session %d already finished", s.ID)
	}
	gop := &GOPReport{Index: s.frame / s.cfg.Codec.GOPSize}
	n := s.cfg.Codec.GOPSize - s.cfg.Codec.FrameInGOP(s.frame)
	if rem := s.src.Len() - s.frame; rem < n {
		n = rem
	}
	var psnrSum, kbpsSum float64
	digest := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		fr, err := s.encodeNextFrame(ctx, workers)
		if err != nil {
			return nil, err
		}
		gop.Frames = append(gop.Frames, *fr)
		psnrSum += fr.PSNR
		kbpsSum += fr.Kbps
		gop.CPUTime += fr.EncodeTime
		binary.LittleEndian.PutUint64(buf[:], fr.Digest)
		digest.Write(buf[:])
	}
	gop.Grid = s.grid
	gop.Contents = s.contents
	gop.MeanPSNR = psnrSum / float64(n)
	gop.MeanKbps = kbpsSum / float64(n)
	gop.Digest = digest.Sum64()
	return gop, nil
}

// appendEstimationKeys appends the per-tile LUT keys stage D1 looks up
// for the current grid — what the session's upcoming GOP is about to cost.
// The keys come from the same per-tile decision the next frame encodes
// with (tileParams), so D1 prices the entries the encode feeds back. The
// server batches the actual LUT resolution across all sessions of a
// class (Server.resolveEstimates).
func (s *Session) appendEstimationKeys(dst []workload.Key) ([]workload.Key, error) {
	if s.grid == nil {
		return nil, fmt.Errorf("core: session %d has no prepared GOP", s.ID)
	}
	for i, p := range s.tileParams() {
		dst = append(dst, tileKey(s.grid.Tiles[i], s.contents[i], p.QP, p.Window))
	}
	return dst, nil
}

// tileKey is the workload-LUT key of a tile encoded at qp and window. Stage
// D1 estimates at it and learn feeds the encode back at it, so the two
// always name one entry.
func tileKey(tile tiling.Tile, tc analysis.TileContent, qp, window int) workload.Key {
	return workload.MakeKey(tile.Area(), int(tc.Texture), int(tc.Motion), qp, window)
}

// prepareForEstimation runs stages A–C for the upcoming frame without
// encoding, so the session can report thread estimates for admission
// control. It is a no-op when the current frame's GOP is already prepared
// — a session rejected in one round keeps its preparation for the next —
// and re-runs the analysis when the session has advanced past the frame it
// last prepared (otherwise estimates would price the previous GOP's grid).
func (s *Session) prepareForEstimation() error {
	if s.grid != nil && (s.preparedFor == s.frame || s.cfg.Codec.FrameInGOP(s.frame) != 0) {
		return nil
	}
	return s.prepareGOP()
}

// refPlaneOf returns the encoder's reference luma or nil before any frame.
func refPlaneOf(enc *codec.Encoder) *video.Plane {
	if ref := enc.Reference(); ref != nil {
		return ref.Y
	}
	return nil
}
