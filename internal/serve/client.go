package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxResponseBytes caps how much of a response body the client will read.
// The largest legitimate answer (a full-detail batch) is far below this;
// anything bigger is a misbehaving or malicious peer and must not balloon
// client memory.
const maxResponseBytes = 8 << 20

// StatusError is a non-200 answer from the server. Status 429 and all 5xx
// are retryable (the client's retry schedule handles them transparently);
// other 4xx are fatal — the request itself is wrong and resending the same
// bytes cannot fix it.
type StatusError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint on a 429 shed (zero when
	// absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Status)
	}
	return fmt.Sprintf("HTTP %d", e.Status)
}

// Retryable reports whether resending the identical request can succeed.
func (e *StatusError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Client is a Go client for the adsala-serve HTTP API. Transient failures —
// transport errors, torn responses, 5xx answers and 429 sheds — are retried
// on the client's fixed schedule (see do); 4xx answers fail after one
// attempt.
type Client struct {
	base string
	http *http.Client
	// The retry schedule: attempts calls in all, the first backoff and its
	// cap. NewClient sets the client constants; in-package tests shorten
	// them.
	attempts            int
	backoff, maxBackoff time.Duration
}

// The client's retry schedule: three attempts, 50 ms before the second,
// doubling, capped at 1 s.
const (
	clientAttempts   = 3
	clientBackoff    = 50 * time.Millisecond
	clientMaxBackoff = time.Second
)

// NewClient returns a client for the server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient selects a default with a 10 s
// timeout.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{
		base:       strings.TrimRight(baseURL, "/"),
		http:       httpClient,
		attempts:   clientAttempts,
		backoff:    clientBackoff,
		maxBackoff: clientMaxBackoff,
	}
}

// do issues one request and decodes the JSON answer into out; header, when
// non-nil, holds extra request headers. A retryable failure is retried after
// a backoff that starts at c.backoff and doubles up to c.maxBackoff, each
// sleep drawn from [0.8·b, b] so that clients shed together do not return
// together, until c.attempts calls have been made. A shed's Retry-After hint,
// capped at c.maxBackoff, is the least the sleep lasts. ctx bounds the whole
// loop: once it expires the error is ctx's, naming the last failure. After
// the last attempt the error wraps the last failure, so errors.As still
// finds its *StatusError.
func (c *Client) do(ctx context.Context, method, path string, header http.Header, body, out any) error {
	var blob []byte
	if body != nil {
		var err error
		if blob, err = json.Marshal(body); err != nil {
			return fmt.Errorf("serve: encode request: %w", err)
		}
	}
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return expired(err, last)
		}
		retry, err := c.attempt(ctx, method, path, header, blob, out)
		if err == nil || !retry {
			return err
		}
		last = err
		if attempt+1 >= c.attempts {
			return fmt.Errorf("after %d attempts: %w", attempt+1, last)
		}
		wait := jitter(c.pause(attempt))
		var sErr *StatusError
		if errors.As(last, &sErr) {
			wait = max(wait, min(sErr.RetryAfter, c.maxBackoff))
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return expired(ctx.Err(), last)
		case <-t.C:
		}
	}
}

// pause is the backoff after failed attempt n (from 0), before jitter.
func (c *Client) pause(n int) time.Duration {
	b := c.backoff
	for ; n > 0 && b < c.maxBackoff; n-- {
		b *= 2
	}
	return min(b, c.maxBackoff)
}

// jitter draws a sleep from [0.8·b, b] from the concurrency-safe global
// source.
func jitter(b time.Duration) time.Duration { return b - rand.N(b/5+1) }

// expired is a context expiry that still says what the time was spent on.
func expired(ctxErr, last error) error {
	if last == nil {
		return ctxErr
	}
	return fmt.Errorf("%w (last error: %w)", ctxErr, last)
}

// attempt is one request/response cycle. It closes the response body on
// every path, caps reads at maxResponseBytes, and reports whether a failure
// is worth retrying: transport errors, torn/garbled bodies, 429 and 5xx are;
// a request that cannot be built and any other 4xx are not.
func (c *Client) attempt(ctx context.Context, method, path string, header http.Header, blob []byte, out any) (retry bool, err error) {
	var rd io.Reader
	if blob != nil {
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return false, fmt.Errorf("serve: build request: %w", err)
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for name, vals := range header {
		req.Header[name] = vals
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport-level failure: connection refused, reset, timeout. All
		// retryable — the server may be restarting or shedding hard.
		return true, fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	defer func() {
		// Drain a bounded remainder so the connection can be reused, then
		// close on every path.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	limited := io.LimitReader(resp.Body, maxResponseBytes)
	if resp.StatusCode != http.StatusOK {
		sErr := &StatusError{Status: resp.StatusCode, RetryAfter: retryAfter(resp.Header)}
		var apiErr apiError
		if json.NewDecoder(limited).Decode(&apiErr) == nil && apiErr.Error != "" {
			sErr.Message = apiErr.Error
		}
		return sErr.Retryable(), fmt.Errorf("serve: %s %s: %w", method, path, sErr)
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(limited).Decode(out); err != nil {
		// A torn or garbled body usually means the connection died
		// mid-answer; a fresh attempt gets a fresh stream.
		return true, fmt.Errorf("serve: decode %s response: %w", path, err)
	}
	return false, nil
}

// Predict asks the server for the optimal thread count of one shape; the
// request names its operation kind (empty = GEMM; SYRK and SYR2K shapes
// pass the (n, k, n) triple).
func (c *Client) Predict(ctx context.Context, req PredictRequest) (int, error) {
	var resp PredictResponse
	if err := c.do(ctx, http.MethodPost, "/predict", nil, req, &resp); err != nil {
		return 0, err
	}
	return resp.Threads, nil
}

// PredictDetail returns the full candidate ranking for one shape.
func (c *Client) PredictDetail(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	var resp PredictResponse
	err := c.do(ctx, http.MethodPost, "/predict?detail=1", nil, req, &resp)
	return resp, err
}

// PredictBatch sends a batch in one round trip: each request names its own
// op (empty = GEMM), so a batch may mix operations. Answers align with the
// request order — the server splits per op and maps every decision back to
// its slot.
func (c *Client) PredictBatch(ctx context.Context, reqs []PredictRequest) ([]int, error) {
	var resp BatchResponse
	if err := c.do(ctx, http.MethodPost, "/batch", nil, BatchRequest{Shapes: reqs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Threads) != len(reqs) {
		return nil, fmt.Errorf("serve: batch answered %d decisions for %d shapes", len(resp.Threads), len(reqs))
	}
	return resp.Threads, nil
}

// ReportMeasured reports executed kernel wall times back to the daemon
// through POST /measured, feeding its drift monitor and flight recorder.
// Returns the number of records the server accepted (the whole batch, or
// zero — ingestion is all-or-nothing).
func (c *Client) ReportMeasured(ctx context.Context, records []MeasuredRecord) (int, error) {
	var resp MeasuredResponse
	if err := c.do(ctx, http.MethodPost, "/measured", nil, MeasuredRequest{Records: records}, &resp); err != nil {
		return 0, err
	}
	return resp.Accepted, nil
}

// Drift fetches the server's online drift report (404 unless the daemon
// runs with drift monitoring on).
func (c *Client) Drift(ctx context.Context) (*DriftReport, error) {
	var resp DriftReport
	if err := c.do(ctx, http.MethodGet, "/drift", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's engine and HTTP metrics.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(ctx, http.MethodGet, "/stats", nil, nil, &resp)
	return resp, err
}

// Healthz checks server readiness.
func (c *Client) Healthz(ctx context.Context) (HealthResponse, error) {
	var resp HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, &resp)
	return resp, err
}

// Reload asks the server to hot-swap its artefact through POST
// /admin/reload, authenticating with token. The answer is the post-swap
// health body (new generation, format version and op list).
func (c *Client) Reload(ctx context.Context, token string) (HealthResponse, error) {
	var resp HealthResponse
	err := c.do(ctx, http.MethodPost, "/admin/reload", http.Header{"X-Adsala-Admin-Token": {token}}, nil, &resp)
	return resp, err
}

// retryAfter parses a Retry-After header in seconds (the only form the
// server emits); 0 means absent or unparseable.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
