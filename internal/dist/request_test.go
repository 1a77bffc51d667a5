package dist

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
	if n := a.fleet.Load(); n != 0 {
		t.Errorf("a refused request left %d sessions on the agent", n)
	}
}
