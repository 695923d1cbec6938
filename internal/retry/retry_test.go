package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// instant is a Sleep that never waits but still honours cancellation.
func instant(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestDoSucceedsFirstAttempt(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Sleep: instant}, func(ctx context.Context) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want nil after 1", err, calls)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Sleep: instant}, func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	base := errors.New("boom")
	err := Do(context.Background(), Policy{MaxAttempts: 3, Sleep: instant}, func(ctx context.Context) error {
		calls++
		return base
	})
	if calls != 3 {
		t.Fatalf("made %d attempts, want 3", calls)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 3 {
		t.Fatalf("error %v, want ExhaustedError with 3 attempts", err)
	}
	if !errors.Is(err, base) {
		t.Fatalf("exhausted error does not wrap the last attempt error: %v", err)
	}
}

func TestFatalStopsImmediately(t *testing.T) {
	calls := 0
	base := errors.New("bad request")
	err := Do(context.Background(), Policy{MaxAttempts: 5, Sleep: instant}, func(ctx context.Context) error {
		calls++
		return Fatal(base)
	})
	if calls != 1 {
		t.Fatalf("made %d attempts after a fatal error, want 1", calls)
	}
	if !IsFatal(err) || !errors.Is(err, base) {
		t.Fatalf("error %v: want fatal wrapping %v", err, base)
	}
}

func TestFatalNilStaysNil(t *testing.T) {
	if Fatal(nil) != nil {
		t.Fatal("Fatal(nil) != nil")
	}
	if IsFatal(errors.New("x")) {
		t.Fatal("plain error reported fatal")
	}
}

func TestFatalSurvivesWrapping(t *testing.T) {
	err := fmt.Errorf("outer: %w", Fatal(errors.New("inner")))
	if !IsFatal(err) {
		t.Fatal("fatal marker lost through fmt.Errorf %w wrapping")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := Policy{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestJitterDeterministicWithSeededSource(t *testing.T) {
	mk := func() Policy {
		rng := rand.New(rand.NewSource(42))
		return Policy{Initial: time.Second, Jitter: 0.5, Rand: rng.Float64}.norm()
	}
	a, b := mk(), mk()
	for i := 0; i < 10; i++ {
		da := a.jittered(a.backoff(i))
		db := b.jittered(b.backoff(i))
		if da != db {
			t.Fatalf("seeded jitter diverged at step %d: %v vs %v", i, da, db)
		}
		base := a.backoff(i)
		if da > base || da < time.Duration(float64(base)*0.5) {
			t.Fatalf("jittered backoff %v outside [%v, %v]", da, time.Duration(float64(base)*0.5), base)
		}
	}
}

func TestAttemptTimeoutTighterThanBudget(t *testing.T) {
	// The caller's deadline is the whole loop's budget; AttemptTimeout must
	// end each attempt well before it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := Do(ctx, Policy{
		AttemptTimeout: 5 * time.Millisecond,
		MaxAttempts:    2,
		Sleep:          instant,
	}, func(ctx context.Context) error {
		<-ctx.Done() // the per-attempt deadline must fire, not the caller's
		return ctx.Err()
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 2 {
		t.Fatalf("error %v, want exhaustion after 2 per-attempt timeouts", err)
	}
	if !errors.Is(ex.Last, context.DeadlineExceeded) {
		t.Fatalf("last error %v, want DeadlineExceeded", ex.Last)
	}
}

func TestCallerCancellationStopsLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Do(ctx, Policy{Sleep: instant}, func(ctx context.Context) error {
		calls++
		return errors.New("x")
	})
	if calls != 0 {
		t.Fatalf("cancelled context still ran %d attempts", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want Canceled", err)
	}
}

func TestOnRetryObservesEveryRetry(t *testing.T) {
	var seen []int
	_ = Do(context.Background(), Policy{MaxAttempts: 4, Sleep: instant,
		OnRetry: func(attempt int, err error, backoff time.Duration) {
			seen = append(seen, attempt)
		}}, func(ctx context.Context) error {
		return errors.New("x")
	})
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("OnRetry saw %v, want [1 2 3]", seen)
	}
}
