// Package retry is the one retry/backoff implementation for a component
// that talks over a network: the serve client, and anything later that
// needs to survive transient failure. It provides capped exponential
// backoff with deterministic-seedable jitter, per-attempt deadlines, and a
// typed retryable-vs-fatal error split so callers classify failures once
// instead of re-implementing ad-hoc loops. The caller's context bounds the
// whole loop.
//
// The default classification is optimistic: every error is retryable unless
// wrapped with Fatal. That matches the call sites — transport errors,
// timeouts and 5xx answers are transient by default, while a 4xx protocol
// answer (the server understood the request and refused it) is marked fatal
// at the point the caller can tell the difference.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Policy describes one retry discipline. The zero value selects the
// defaults; policies are plain values, safe to copy and share.
type Policy struct {
	// MaxAttempts bounds the number of operation invocations (not
	// re-invocations): 1 means no retry at all. 0 or less selects the
	// default (4).
	MaxAttempts int
	// Initial is the backoff before the second attempt (default 50ms).
	Initial time.Duration
	// Max caps the backoff between any two attempts (default 2s).
	Max time.Duration
	// Multiplier grows the backoff between attempts (default 2.0).
	Multiplier float64
	// Jitter is the fraction of each backoff randomised away (0..1,
	// default 0.2): a backoff b sleeps in [b*(1-Jitter), b]. Jitter
	// de-synchronises fleets of clients retrying against one server.
	Jitter float64
	// AttemptTimeout bounds one invocation: each attempt runs under a
	// context that expires this long after it starts. 0 means no
	// per-attempt deadline beyond the caller's context.
	AttemptTimeout time.Duration
	// Rand supplies jitter randomness in [0, 1); nil selects the global
	// math/rand source. Tests inject a seeded source for determinism.
	Rand func() float64
	// Sleep replaces the inter-attempt wait; nil selects a real timer
	// honouring ctx cancellation. Tests inject instant sleeps.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Defaults for the zero Policy.
const (
	defaultMaxAttempts = 4
	defaultInitial     = 50 * time.Millisecond
	defaultMax         = 2 * time.Second
	defaultMultiplier  = 2.0
	defaultJitter      = 0.2
)

// norm returns the policy with defaults applied.
func (p Policy) norm() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	if p.Initial <= 0 {
		p.Initial = defaultInitial
	}
	if p.Max <= 0 {
		p.Max = defaultMax
	}
	if p.Multiplier < 1 {
		p.Multiplier = defaultMultiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = defaultJitter
	}
	if p.Rand == nil {
		p.Rand = globalFloat64
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// globalRand guards the shared jitter source: policies are copied across
// goroutines, so the default source must be safe for concurrent use.
var (
	globalMu   sync.Mutex
	globalRand = rand.New(rand.NewSource(1))
)

func globalFloat64() float64 {
	globalMu.Lock()
	defer globalMu.Unlock()
	return globalRand.Float64()
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff returns the wait before attempt+2 (backoff(0) is the wait after
// the first failure) for a normalised policy, before jitter: capped
// exponential growth Initial * Multiplier^attempt.
func (p Policy) backoff(attempt int) time.Duration {
	p = p.norm()
	b := float64(p.Initial)
	for i := 0; i < attempt; i++ {
		b *= p.Multiplier
		if b >= float64(p.Max) {
			return p.Max
		}
	}
	if b > float64(p.Max) {
		return p.Max
	}
	return time.Duration(b)
}

// jittered applies the policy's jitter to a base backoff.
func (p Policy) jittered(base time.Duration) time.Duration {
	if p.Jitter == 0 || base <= 0 {
		return base
	}
	f := 1 - p.Jitter*p.Rand()
	return time.Duration(float64(base) * f)
}

// fatalError marks an error as non-retryable.
type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// Fatal marks err as fatal: Do stops immediately and returns it (still
// unwrappable to the original via errors.Is/As). A nil err stays nil.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err: err}
}

// Fatalf is Fatal over fmt.Errorf.
func Fatalf(format string, args ...any) error {
	return Fatal(fmt.Errorf(format, args...))
}

// IsFatal reports whether err (or anything it wraps) was marked with Fatal.
func IsFatal(err error) bool {
	var f *fatalError
	return errors.As(err, &f)
}

// ExhaustedError reports a loop that gave up: it carries the attempts made
// and wraps the last operation error.
type ExhaustedError struct {
	// Attempts is the number of invocations performed.
	Attempts int
	// Last is the error of the final attempt.
	Last error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("after %d attempts: %v", e.Attempts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// Do runs op under the policy until it succeeds, returns a fatal error, the
// attempts are exhausted, or the context expires. The context passed to op
// carries the per-attempt deadline when AttemptTimeout is set, so the
// operation's own network calls inherit it.
//
// The returned error is nil on success; the fatal error as marked; an
// *ExhaustedError wrapping the last attempt's error when retries ran out;
// or the context error when the caller's context expired between attempts,
// with the last attempt error (if any) attached via ExhaustedError so the
// caller sees why the time was spent.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	p = p.norm()
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return expiredError(err, attempt-1, last)
		}
		actx := ctx
		var cancel context.CancelFunc = func() {}
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := op(actx)
		cancel()
		if err == nil {
			return nil
		}
		if IsFatal(err) {
			return err
		}
		last = err
		if attempt >= p.MaxAttempts {
			return &ExhaustedError{Attempts: attempt, Last: last}
		}
		if err := p.Sleep(ctx, p.jittered(p.backoff(attempt-1))); err != nil {
			return expiredError(err, attempt, last)
		}
	}
}

// expiredError wraps a context expiry with the last attempt error when one
// exists, so "the context ran out" still explains what it ran out doing.
func expiredError(ctxErr error, attempts int, last error) error {
	if last == nil {
		return ctxErr
	}
	return &ExhaustedError{Attempts: attempts, Last: fmt.Errorf("%w (last error: %v)", ctxErr, last)}
}
