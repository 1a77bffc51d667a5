package quality

import (
	"testing"
	"testing/quick"

	"repro/internal/analysis"
)

func newAdapter(t *testing.T) *Adapter {
	t.Helper()
	a, err := NewAdapter(DefaultConstraints(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDefaultQPPerTexture(t *testing.T) {
	if defaultQP(analysis.TextureLow) != 37 {
		t.Fatal("low texture default")
	}
	if defaultQP(analysis.TextureMedium) != 32 {
		t.Fatal("medium texture default")
	}
	if defaultQP(analysis.TextureHigh) != 27 {
		t.Fatal("high texture default")
	}
}

func TestConstraintsValidate(t *testing.T) {
	if err := DefaultConstraints().validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Constraints{
		{MinPSNR: 0, PSNRMargin: 1},
		{MinPSNR: 120, PSNRMargin: 1},
		{MinPSNR: 40, PSNRMargin: -1},
		{MinPSNR: 40, PSNRMargin: 1, MaxBitrateKbps: -5},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestResetTileInstallsDefault(t *testing.T) {
	a := newAdapter(t)
	if qp := a.ResetTile(0, analysis.TextureHigh); qp != 27 {
		t.Fatalf("reset QP = %d", qp)
	}
	if a.qps[0] != 27 {
		t.Fatal("QP not stored")
	}
}

func TestAdaptRaisesQPWhenComfortable(t *testing.T) {
	a := newAdapter(t)
	a.ResetTile(0, analysis.TextureMedium) // 32
	c := a.constraints
	qp := a.Adapt(0, Measurement{PSNR: c.MinPSNR + c.PSNRMargin + 5}, analysis.TextureMedium)
	if qp != 33 {
		t.Fatalf("QP = %d, want 33 (raised)", qp)
	}
	// Repeated comfort keeps raising up to the extreme cap.
	for i := 0; i < 30; i++ {
		qp = a.Adapt(0, Measurement{PSNR: c.MinPSNR + c.PSNRMargin + 5}, analysis.TextureMedium)
	}
	if qp != qpMaxExtreme {
		t.Fatalf("QP = %d, want capped at %d", qp, qpMaxExtreme)
	}
}

func TestAdaptLowersQPWhenViolating(t *testing.T) {
	a := newAdapter(t)
	a.ResetTile(0, analysis.TextureHigh) // 27
	c := a.constraints
	qp := a.Adapt(0, Measurement{PSNR: c.MinPSNR - 3}, analysis.TextureHigh)
	if qp != 26 {
		t.Fatalf("QP = %d, want 26 (lowered)", qp)
	}
	for i := 0; i < 30; i++ {
		qp = a.Adapt(0, Measurement{PSNR: c.MinPSNR - 3}, analysis.TextureHigh)
	}
	if qp != qpMinExtreme {
		t.Fatalf("QP = %d, want floored at %d", qp, qpMinExtreme)
	}
}

func TestAdaptInBandRestoresDefault(t *testing.T) {
	a := newAdapter(t)
	a.ResetTile(0, analysis.TextureLow) // 37
	c := a.constraints
	// Drift up first.
	a.Adapt(0, Measurement{PSNR: c.MinPSNR + c.PSNRMargin + 5}, analysis.TextureLow)
	// A measurement inside [const, const+margin] restores the default.
	qp := a.Adapt(0, Measurement{PSNR: c.MinPSNR + c.PSNRMargin/2}, analysis.TextureLow)
	if qp != 37 {
		t.Fatalf("QP = %d, want default 37", qp)
	}
}

func TestAdaptBitratePressureRaisesQP(t *testing.T) {
	a := newAdapter(t)
	a.ResetTile(0, analysis.TextureMedium)
	c := a.constraints
	// In-band PSNR but bitrate over budget: default would be restored,
	// then nudged up by one step.
	qp := a.Adapt(0, Measurement{
		PSNR:        c.MinPSNR + c.PSNRMargin/2,
		BitrateKbps: c.MaxBitrateKbps + 100,
	}, analysis.TextureMedium)
	if qp != 33 {
		t.Fatalf("QP = %d, want 33 (bitrate pressure)", qp)
	}
}

func TestAdaptUnseenTileStartsFromDefault(t *testing.T) {
	a := newAdapter(t)
	c := a.constraints
	qp := a.Adapt(7, Measurement{PSNR: c.MinPSNR - 1}, analysis.TextureHigh)
	if qp != 26 {
		t.Fatalf("QP = %d, want 27−1", qp)
	}
}

func TestAdaptQPAlwaysInExploredRange(t *testing.T) {
	f := func(psnr uint8, kbps uint16, tex uint8, steps uint8) bool {
		a, err := NewAdapter(DefaultConstraints(), 1)
		if err != nil {
			return false
		}
		texture := analysis.TextureClass(int(tex) % 3)
		qp := a.ResetTile(0, texture)
		for i := 0; i < int(steps%20)+1; i++ {
			qp = a.Adapt(0, Measurement{
				PSNR:        float64(psnr%60) + 20,
				BitrateKbps: float64(kbps),
			}, texture)
			if qp < qpMinExtreme || qp > qpMaxExtreme {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAdapterStepConfigurable(t *testing.T) {
	a, err := NewAdapter(DefaultConstraints(), 3)
	if err != nil {
		t.Fatal(err)
	}
	a.ResetTile(0, analysis.TextureMedium)
	c := a.constraints
	if qp := a.Adapt(0, Measurement{PSNR: c.MinPSNR + c.PSNRMargin + 1}, analysis.TextureMedium); qp != 35 {
		t.Fatalf("QP = %d, want 35 with step 3", qp)
	}
}

func TestNewAdapterRejectsBadConstraints(t *testing.T) {
	if _, err := NewAdapter(Constraints{MinPSNR: -1}, 1); err == nil {
		t.Fatal("accepted invalid constraints")
	}
}

func TestTilesAreIndependent(t *testing.T) {
	a := newAdapter(t)
	a.ResetTile(0, analysis.TextureLow)
	a.ResetTile(1, analysis.TextureHigh)
	c := a.constraints
	a.Adapt(0, Measurement{PSNR: c.MinPSNR + c.PSNRMargin + 9}, analysis.TextureLow)
	if a.qps[1] != 27 {
		t.Fatalf("tile 1 QP moved to %d when tile 0 adapted", a.qps[1])
	}
}
