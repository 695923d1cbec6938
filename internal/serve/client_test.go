package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastClient is a client with the default three attempts and 1 ms backoffs,
// so retry tests do not sleep the real schedule.
func fastClient(base string) *Client {
	c := NewClient(base, nil)
	c.backoff, c.maxBackoff = time.Millisecond, time.Millisecond
	return c
}

// TestClientBackoffGrowthAndCap pins the fixed schedule: three attempts,
// 50 ms before the second, doubling, capped at 1 s.
func TestClientBackoffGrowthAndCap(t *testing.T) {
	c := NewClient("http://localhost", nil)
	if c.attempts != 3 {
		t.Errorf("attempts = %d, want 3", c.attempts)
	}
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second,
	}
	for n, w := range want {
		if got := c.pause(n); got != w {
			t.Errorf("pause(%d) = %v, want %v", n, got, w)
		}
	}
}

// TestClientJitterBounds pins each sleep to [0.8·b, b] and shows that the
// sleeps spread: clients shed together must not all come back together.
func TestClientJitterBounds(t *testing.T) {
	for _, b := range []time.Duration{50 * time.Millisecond, time.Second} {
		lo := b - b/5
		seen := map[time.Duration]bool{}
		for i := 0; i < 1000; i++ {
			d := jitter(b)
			if d < lo || d > b {
				t.Fatalf("jitter(%v) = %v, outside [%v, %v]", b, d, lo, b)
			}
			seen[d] = true
		}
		if len(seen) < 10 {
			t.Errorf("jitter(%v) drew %d distinct sleeps in 1000, want them spread", b, len(seen))
		}
	}

	// The loop sleeps the schedule: two backoffs, at least 0.8·(50 + 100) ms.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, "injected")
	}))
	defer ts.Close()
	start := time.Now()
	if _, err := NewClient(ts.URL, nil).Healthz(bg); err == nil {
		t.Fatal("503 answers succeeded")
	}
	if d := time.Since(start); calls.Load() != 3 || d < 120*time.Millisecond {
		t.Errorf("%d attempts in %v, want 3 after at least 120 ms of backoff", calls.Load(), d)
	}
}

// transientFailures are the failures the client retries: 429, 5xx, a
// dropped connection and a torn body. status is the *StatusError the
// exhausted error must still unwrap to (0: not an HTTP error).
var transientFailures = []struct {
	name   string
	status int
	fail   func(w http.ResponseWriter)
}{
	{"429", http.StatusTooManyRequests, func(w http.ResponseWriter) { writeError(w, http.StatusTooManyRequests, "shed") }},
	{"503", http.StatusServiceUnavailable, func(w http.ResponseWriter) { writeError(w, http.StatusServiceUnavailable, "down") }},
	{"drop", 0, func(w http.ResponseWriter) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}},
	{"torn", 0, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"threads":`))
	}},
}

// failingServer fails its first `failures` calls with fail, then answers
// {"threads":4}; calls counts every request.
func failingServer(t *testing.T, failures int64, fail func(w http.ResponseWriter)) (ts *httptest.Server, calls *atomic.Int64) {
	calls = new(atomic.Int64)
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			fail(w)
			return
		}
		w.Write([]byte(`{"threads":4}`))
	}))
	t.Cleanup(ts.Close)
	return ts, calls
}

// TestClientSucceedsFirstAttempt: a good first answer is returned after
// exactly one call, with no backoff slept (the backoff is an hour).
func TestClientSucceedsFirstAttempt(t *testing.T) {
	ts, calls := failingServer(t, 0, nil)
	c := NewClient(ts.URL, nil)
	c.backoff = time.Hour
	got, err := c.Predict(bg, PredictRequest{M: 8, K: 8, N: 8})
	if err != nil || got != 4 || calls.Load() != 1 {
		t.Fatalf("first-attempt 200: threads %d, err %v after %d calls; want 4, nil after 1", got, err, calls.Load())
	}
}

// TestClientRetriesUntilSuccess: for each transient failure, two failures
// then a good answer succeed on the third attempt.
func TestClientRetriesUntilSuccess(t *testing.T) {
	for _, tc := range transientFailures {
		t.Run(tc.name, func(t *testing.T) {
			ts, calls := failingServer(t, 2, tc.fail)
			got, err := fastClient(ts.URL).Predict(bg, PredictRequest{M: 8, K: 8, N: 8})
			if err != nil || got != 4 || calls.Load() != 3 {
				t.Fatalf("two failures then 200: threads %d, err %v after %d calls; want 4, nil after 3", got, err, calls.Load())
			}
		})
	}
}

// TestClientExhaustsAttempts: for each transient failure, three failures
// fail after three attempts, and the error still unwraps to the last
// answer's *StatusError.
func TestClientExhaustsAttempts(t *testing.T) {
	for _, tc := range transientFailures {
		t.Run(tc.name, func(t *testing.T) {
			ts, calls := failingServer(t, 3, tc.fail)
			_, err := fastClient(ts.URL).Predict(bg, PredictRequest{M: 8, K: 8, N: 8})
			if err == nil || calls.Load() != 3 || !strings.Contains(err.Error(), "after 3 attempts") {
				t.Fatalf("three failures: err %v after %d calls, want exhaustion after 3", err, calls.Load())
			}
			var sErr *StatusError
			if tc.status != 0 && (!errors.As(err, &sErr) || sErr.Status != tc.status) {
				t.Errorf("exhausted error %v does not unwrap to the HTTP %d StatusError", err, tc.status)
			}
		})
	}
}

// TestClientFatalStopsImmediately: every non-429 4xx fails after one
// attempt, even with attempts to spare, and the error unwraps to its
// *StatusError.
func TestClientFatalStopsImmediately(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			ts, calls := failingServer(t, 1, func(w http.ResponseWriter) { writeError(w, status, "bad request") })
			c := fastClient(ts.URL)
			c.attempts = 5
			_, err := c.Predict(bg, PredictRequest{M: 8, K: 8, N: 8})
			var sErr *StatusError
			if calls.Load() != 1 || !errors.As(err, &sErr) || sErr.Status != status {
				t.Fatalf("HTTP %d: err %v after %d calls, want its StatusError after 1", status, err, calls.Load())
			}
		})
	}
}

// TestClientHonoursRetryAfter: a shed's Retry-After hint is the least the
// backoff sleeps, capped at maxBackoff. The backoff is 1 ms and the hint 30 s,
// so the one sleep lasts the 150 ms cap: shorter means the hint was ignored,
// seconds longer that it was not capped.
func TestClientHonoursRetryAfter(t *testing.T) {
	ts, calls := failingServer(t, 1, func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusTooManyRequests, "shed")
	})
	c := NewClient(ts.URL, nil)
	c.backoff, c.maxBackoff = time.Millisecond, 150*time.Millisecond
	start := time.Now()
	got, err := c.Predict(bg, PredictRequest{M: 8, K: 8, N: 8})
	d := time.Since(start)
	if err != nil || got != 4 || calls.Load() != 2 {
		t.Fatalf("429 then 200: threads %d, err %v after %d calls; want 4, nil after 2", got, err, calls.Load())
	}
	if d < c.maxBackoff || d > 10*time.Second {
		t.Errorf("retried after %v, want the hint capped at %v", d, c.maxBackoff)
	}
}

// TestClientBuildErrorFailsOnce: a request that cannot be built is not
// retried. The backoff is an hour, so a retry would hang the test.
func TestClientBuildErrorFailsOnce(t *testing.T) {
	c := NewClient("http://bad host", nil)
	c.backoff = time.Hour
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	_, err := c.Healthz(ctx)
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "build request") {
		t.Fatalf("bad URL: err %v (ctx %v), want an immediate build error", err, ctx.Err())
	}
}

// TestClientContextBoundsLoop: a ctx that expires during a backoff ends the
// loop with the ctx error, still naming the failure it was backing off
// from; a ctx cancelled before the first attempt makes none. The backoff is
// an hour and the 503 takes milliseconds, so the deadline lands in the
// backoff.
func TestClientContextBoundsLoop(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, "down")
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	c.backoff = time.Hour

	ctx, cancel := context.WithTimeout(bg, 500*time.Millisecond)
	defer cancel()
	_, err := c.Healthz(ctx)
	var sErr *StatusError
	if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &sErr) || sErr.Status != http.StatusServiceUnavailable || calls.Load() != 1 {
		t.Errorf("deadline during backoff: err %v after %d calls, want DeadlineExceeded naming the 503 after 1", err, calls.Load())
	}

	calls.Store(0)
	ctx, cancel = context.WithCancel(bg)
	cancel()
	if _, err := c.Healthz(ctx); !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Errorf("cancelled ctx: err %v after %d calls, want Canceled after 0", err, calls.Load())
	}
}
