package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/medgen"
	"repro/internal/serve"
	"repro/internal/workload"
)

// spaces is an endless-enough body: n bytes of JSON whitespace produced
// on demand, so the test itself allocates nothing proportional to n.
type spaces struct{ n, read int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.read >= s.n {
		return 0, io.EOF
	}
	if left := s.n - s.read; int64(len(p)) > left {
		p = p[:left]
	}
	for i := range p {
		p[i] = ' '
	}
	s.read += int64(len(p))
	return len(p), nil
}

// TestHandlersRefuseHostileBodies misbehaves at every POST handler of
// both nodes in the two ways a peer can before the payload is even looked
// at. A well-formed body speaking protocol version 1 must be refused as
// such, ahead of every other check the handler makes. A body past
// maxRequestBytes (tried on the heartbeat, the largest legitimate
// message; the handlers share one decoder) must be refused too — having
// read no further than the cap, however much the peer chose to send.
func TestHandlersRefuseHostileBodies(t *testing.T) {
	m, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{Name: "a", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	for name, handle := range map[string]http.HandlerFunc{
		"master heartbeat": m.handleHeartbeat,
		"master submit":    m.handleSubmit,
		"agent submit":     a.handleSubmit,
		"agent import":     a.handleImport,
	} {
		rec := httptest.NewRecorder()
		handle(rec, httptest.NewRequest(http.MethodPost, "/",
			strings.NewReader(`{"version":1,"name":"x","url":"http://x"}`)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "protocol version 1") {
			t.Errorf("%s: v1 body answered %d %q, want 400 naming the version", name, rec.Code, rec.Body.String())
		}
	}

	body := &spaces{n: 4 * maxRequestBytes}
	rec := httptest.NewRecorder()
	m.handleHeartbeat(rec, httptest.NewRequest(http.MethodPost, "/", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized heartbeat answered %d, want 413", rec.Code)
	}
	if body.read > maxRequestBytes+1<<20 {
		t.Errorf("read %d bytes of an oversized body, cap is %d", body.read, maxRequestBytes)
	}

	if len(m.agents) != 0 {
		t.Errorf("a refused heartbeat registered an agent: %v", m.agents)
	}
	if n := serve.SumLoads(a.fleet.Loads()).Sessions; n != 0 {
		t.Errorf("a refused request left %d sessions on the agent", n)
	}
}

// bindSmall is bindSource behind a fuzz-sized geometry bound, so an
// accepted submission renders its first frame in microseconds.
func bindSmall(spec core.SourceSpec) (core.FrameSource, error) {
	var cfg medgen.Config
	if json.Unmarshal(spec.Data, &cfg) == nil && (cfg.Width > 256 || cfg.Height > 256) {
		return nil, fmt.Errorf("%dx%d is beyond what the fuzz binds", cfg.Width, cfg.Height)
	}
	return bindSource(spec)
}

// TestBindSourceBoundsGeometry: a few hundred bytes of spec must not be
// able to size a frame the node then renders, nor an allocation sized
// from the frame count: the generator keeps frames as they are asked for.
func TestBindSourceBoundsGeometry(t *testing.T) {
	for _, tc := range []struct {
		name          string
		width, height int
		frames        int
		binds         bool
	}{
		{"2^40 pixels", 1 << 20, 1 << 20, 8, false},
		{"2^40 frames", 256, 192, 1 << 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := testMedgenConfig(medgen.Brain, medgen.Rotate, tc.frames)
			mc.Width, mc.Height = tc.width, tc.height
			data, err := json.Marshal(mc)
			if err != nil {
				t.Fatal(err)
			}
			src, err := bindSource(core.SourceSpec{Kind: sourceKindMedgen, Data: data})
			if !tc.binds {
				if err == nil {
					t.Fatal("the spec bound to a source")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if src.Len() != tc.frames {
				t.Fatalf("Len %d, want %d", src.Len(), tc.frames)
			}
			if f := src.Frame(0); f.Width() != tc.width || f.Height() != tc.height {
				t.Fatalf("frame 0 is %dx%d", f.Width(), f.Height())
			}
		})
	}
}

// FuzzRequestBodies throws arbitrary bodies at the three POST handlers a
// peer can reach with a payload of its choosing — agent submit, agent
// import, master heartbeat — each on a fresh, never-started node (so
// nothing is served and nothing is dialled). The contract: a 2xx or a
// 4xx/5xx with a message, never a panic, and no session or agent
// registered by a body that was refused. Seeded with one well-formed body
// per handler at 64×48.
func FuzzRequestBodies(f *testing.F) {
	mc := testMedgenConfig(medgen.Brain, medgen.Rotate, 8)
	mc.Width, mc.Height = 64, 48
	src, err := NewMedgenSource(mc, "")
	if err != nil {
		f.Fatal(err)
	}
	spec, err := src.Spec()
	if err != nil {
		f.Fatal(err)
	}
	scfg := testSessionConfig()
	scfg.Retile.MinTileW, scfg.Retile.MinTileH = 16, 16
	sess, err := core.NewSession(0, src, scfg, workload.NewLUT())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sess.EncodeGOP(); err != nil {
		f.Fatal(err)
	}
	wire := checkpointAs(f, 0, &core.SessionSnapshot{Session: sess, Handoff: core.Handoff{Class: src.Class(), Demand: 1}})
	for handler, msg := range []any{
		SubmitRequest{Version: ProtocolVersion, Source: spec, Config: scfg, Tenant: "clinic", Priority: 2},
		ImportRequest{Version: ProtocolVersion, Session: wire},
		Heartbeat{Version: ProtocolVersion, Name: "a", URL: "http://127.0.0.1:1", Seq: 1,
			Loads: []core.LoadReport{{Alive: true, Sessions: 1}}, Checkpoints: []*core.SessionWire{wire}},
	} {
		body, err := json.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(handler), body)
	}

	f.Fuzz(func(t *testing.T, handler uint8, body []byte) {
		a, err := NewAgent(AgentConfig{Name: "a", Addr: "127.0.0.1:0", Binder: bindSmall})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		handle := []http.HandlerFunc{a.handleSubmit, a.handleImport, m.handleHeartbeat}[int(handler)%3]
		rec := httptest.NewRecorder()
		handle(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		accepted := serve.SumLoads(a.fleet.Loads()).Sessions + len(m.agents)
		switch {
		case rec.Code == http.StatusOK:
			if accepted != 1 {
				t.Fatalf("handler %d answered 200 and registered %d things", handler%3, accepted)
			}
		case rec.Code >= 400 && rec.Body.Len() > 0:
			if accepted != 0 {
				t.Fatalf("handler %d answered %d %q and still registered something", handler%3, rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("handler %d answered %d %q", handler%3, rec.Code, rec.Body.String())
		}
	})
}
