package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// errPermanent marks a remote failure that retrying cannot fix — the
// peer understood the request and refused it (a non-429 4xx status).
// Callers branch with errors.Is: a permanent error means drop or
// dead-letter the work, while any other Client error means the peer was
// unreachable or transiently failing and the work is still owed.
var errPermanent = errors.New("dist: permanent remote failure")

// retryConfig shapes the Client's backoff. The zero value selects the
// defaults noted per field.
type retryConfig struct {
	// MaxAttempts bounds how often one call is tried (first attempt
	// included). Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it up to MaxDelay. Default 50ms, capped at 2s.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Default 2s.
	MaxDelay time.Duration
	// Timeout bounds each individual attempt (connect + response).
	// Default 5s.
	Timeout time.Duration

	// jitter returns a uniform [0,1) sample and sleep pauses between
	// attempts — injectable so the backoff schedule is testable without
	// wall-clock sleeps. nil selects math/rand and time.Sleep.
	jitter func() float64
	sleep  func(time.Duration)
}

func (c retryConfig) withDefaults() retryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.jitter == nil {
		c.jitter = rand.Float64
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// Client is the one road from a master to an agent (and back, for
// heartbeats): JSON over HTTP with jittered exponential backoff and a
// per-attempt timeout. Network errors, 5xx and 429 responses are
// retried up to MaxAttempts; other 4xx responses fail immediately with
// errPermanent. Safe for concurrent use.
type Client struct {
	cfg  retryConfig
	http *http.Client
}

// newClient builds a retrying JSON client.
func newClient(cfg retryConfig) *Client {
	return &Client{cfg: cfg.withDefaults(), http: &http.Client{}}
}

// DefaultClient returns a client with the default retry schedule.
func DefaultClient() *Client { return newClient(retryConfig{}) }

// PostJSON POSTs in as JSON and decodes the 2xx response body into out
// (out may be nil to discard it).
func (c *Client) PostJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("dist: encode request: %w", err)
	}
	return c.do(ctx, http.MethodPost, url, body, out)
}

// GetJSON GETs url and decodes the 2xx response body into out.
func (c *Client) GetJSON(ctx context.Context, url string, out any) error {
	return c.do(ctx, http.MethodGet, url, nil, out)
}

// retryableStatus reports whether an HTTP status is worth another
// attempt: server-side failures and throttling are, client errors are
// not.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

func (c *Client) do(ctx context.Context, method, url string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Exponential backoff with full jitter in [0.5, 1.5)× the
			// nominal delay, so a fleet of retriers never thunders in
			// phase.
			delay := c.cfg.BaseDelay << (attempt - 1)
			if delay > c.cfg.MaxDelay {
				delay = c.cfg.MaxDelay
			}
			delay = time.Duration(float64(delay) * (0.5 + c.cfg.jitter()))
			c.cfg.sleep(delay)
			if ctx.Err() != nil {
				return fmt.Errorf("dist: %s %s: %w", method, url, ctx.Err())
			}
		}
		err := c.attempt(ctx, method, url, body, out)
		if err == nil {
			return nil
		}
		if errors.Is(err, errPermanent) || ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("dist: %s %s failed after %d attempts: %w",
		method, url, c.cfg.MaxAttempts, lastErr)
}

// attempt runs one bounded call.
func (c *Client) attempt(ctx context.Context, method, url string, body []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return fmt.Errorf("%w: %v", errPermanent, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err // network-level: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
		if retryableStatus(resp.StatusCode) {
			return err
		}
		return fmt.Errorf("%w: %v", errPermanent, err)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s %s response: %w", method, url, err)
	}
	return nil
}
