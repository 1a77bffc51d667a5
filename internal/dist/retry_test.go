package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testClient builds a client with a deterministic jitter (always the
// nominal delay) and recorded, non-blocking sleeps.
func testClient(cfg retryConfig) (*Client, *[]time.Duration) {
	var slept []time.Duration
	cfg.jitter = func() float64 { return 0.5 } // 0.5+0.5 = 1.0× nominal
	cfg.sleep = func(d time.Duration) { slept = append(slept, d) }
	return newClient(cfg), &slept
}

// TestRetryTransientThenSuccess: 5xx responses are retried on the
// exponential schedule until the peer recovers.
func TestRetryTransientThenSuccess(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{Version: ProtocolVersion, Name: "ok"})
	}))
	defer srv.Close()

	c, slept := testClient(retryConfig{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond})
	var out HealthResponse
	if err := c.GetJSON(context.Background(), srv.URL, &out); err != nil {
		t.Fatalf("transient 5xx not retried to success: %v", err)
	}
	if out.Name != "ok" {
		t.Fatalf("decoded %+v", out)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want 3", calls.Load())
	}
	// Two backoffs: base, then 2×base (jitter pinned to 1.0×).
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("backoff schedule %v, want %v", *slept, want)
	}
}

// TestRetry429Retried: throttling is transient, not permanent.
func TestRetry429Retried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		writeJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
	}))
	defer srv.Close()

	c, _ := testClient(retryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond})
	var out HeartbeatResponse
	if err := c.PostJSON(context.Background(), srv.URL, Heartbeat{Version: ProtocolVersion}, &out); err != nil {
		t.Fatalf("429 not retried: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2", calls.Load())
	}
}

// TestRetryPermanent: a non-429 4xx fails immediately with errPermanent
// — no second attempt, no backoff.
func TestRetryPermanent(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such session", http.StatusNotFound)
	}))
	defer srv.Close()

	c, slept := testClient(retryConfig{MaxAttempts: 5, BaseDelay: time.Millisecond})
	err := c.GetJSON(context.Background(), srv.URL, nil)
	if !errors.Is(err, errPermanent) {
		t.Fatalf("4xx error = %v, want errPermanent", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls for a permanent failure, want 1", calls.Load())
	}
	if len(*slept) != 0 {
		t.Fatalf("slept %v before a permanent failure", *slept)
	}
	if !strings.Contains(err.Error(), "404") {
		t.Fatalf("error %v does not carry the status", err)
	}
}

// TestRetryExhausted: a peer that never recovers yields a distinct
// exhaustion error — not errPermanent, the work is still pending.
func TestRetryExhausted(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c, _ := testClient(retryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond})
	err := c.GetJSON(context.Background(), srv.URL, nil)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if errors.Is(err, errPermanent) {
		t.Fatalf("transient exhaustion classified permanent: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want MaxAttempts=3", calls.Load())
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error %v does not report the attempt count", err)
	}
}

// TestRetryTimeout: a hanging peer is cut off by the per-call timeout
// and retried; the final error is transient, not permanent.
func TestRetryTimeout(t *testing.T) {
	var calls atomic.Int32
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	c, _ := testClient(retryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond, Timeout: 30 * time.Millisecond})
	err := c.GetJSON(context.Background(), srv.URL, nil)
	if err == nil {
		t.Fatal("hung peer reported success")
	}
	if errors.Is(err, errPermanent) {
		t.Fatalf("timeout classified permanent: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2 (timeout retried once)", calls.Load())
	}
}

// TestRetryNetworkError: a connection refused is transient and retried
// up to the attempt budget.
func TestRetryNetworkError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listens here anymore

	c, slept := testClient(retryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond})
	err := c.GetJSON(context.Background(), url, nil)
	if err == nil {
		t.Fatal("dead peer reported success")
	}
	if errors.Is(err, errPermanent) {
		t.Fatalf("network error classified permanent: %v", err)
	}
	if len(*slept) != 2 {
		t.Fatalf("%d backoffs, want 2", len(*slept))
	}
}

// TestRetryContextCancel: caller cancellation wins over the retry
// budget.
func TestRetryContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := retryConfig{MaxAttempts: 10, BaseDelay: time.Millisecond}
	cfg.jitter = func() float64 { return 0.5 }
	cfg.sleep = func(time.Duration) { cancel() } // cancelled mid-backoff
	c := newClient(cfg)
	err := c.GetJSON(ctx, srv.URL, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
}
