package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The fault-injection harness behind the chaos tests: http.Handler
// middleware that answers error statuses, drops connections and truncates
// responses on a seeded, deterministic schedule.
//
// Concurrent clients interleave non-deterministically, so a schedule driven
// by a shared RNG stream would make every chaos run unique. Instead each
// call is numbered by an atomic counter and its fault is derived by hashing
// (seed, call index): the i-th call through the handler always meets the
// same fault however goroutines interleave, and a failing chaos test
// replays exactly from its seed.

// faultKind names one injected behaviour.
type faultKind int

const (
	// faultNone passes the call through untouched.
	faultNone faultKind = iota
	// faultError answers with the plan's status — the server answered, badly.
	faultError
	// faultDrop aborts the connection without a response — the server
	// vanished (the client sees EOF).
	faultDrop
	// faultTruncate sends roughly half of the real response, then aborts —
	// the server died mid-answer.
	faultTruncate
)

// faultPlan sets the per-call probabilities of each fault kind. The kinds
// are mutually exclusive, first match wins, so ErrorP+DropP+TruncateP
// should stay ≤ 1.
type faultPlan struct {
	ErrorP float64
	// Status is the HTTP status of an error fault (default 500).
	Status    int
	DropP     float64
	TruncateP float64
}

// faultSchedule derives each call's fault from a splitmix64 hash of
// (seed, call): deterministic per call index, lock-free.
type faultSchedule struct {
	seed int64
	plan faultPlan
}

func newFaultSchedule(seed int64, plan faultPlan) *faultSchedule {
	if plan.Status == 0 {
		plan.Status = http.StatusInternalServerError
	}
	return &faultSchedule{seed: seed, plan: plan}
}

// unit hashes (seed, call) to a float64 in [0, 1).
func (s *faultSchedule) unit(call int64) float64 {
	x := uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(call)*0xbf58476d1ce4e5b9 + 0x29a09376266223d6
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

func (s *faultSchedule) decide(call int64) faultKind {
	u := s.unit(call)
	switch {
	case u < s.plan.ErrorP:
		return faultError
	case u < s.plan.ErrorP+s.plan.DropP:
		return faultDrop
	case u < s.plan.ErrorP+s.plan.DropP+s.plan.TruncateP:
		return faultTruncate
	}
	return faultNone
}

// faultStats counts injected faults by kind, so that a "survived the
// faults" pass cannot silently mean "no faults fired".
type faultStats struct {
	Calls, Errors, Drops, Truncates atomic.Int64
}

// fired reports whether at least one fault was injected.
func (s *faultStats) fired() bool {
	return s.Errors.Load()+s.Drops.Load()+s.Truncates.Load() > 0
}

func (s *faultStats) count(kind faultKind) {
	s.Calls.Add(1)
	switch kind {
	case faultError:
		s.Errors.Add(1)
	case faultDrop:
		s.Drops.Add(1)
	case faultTruncate:
		s.Truncates.Add(1)
	}
}

// faultHandler wraps next with fault injection on the schedule, numbering
// calls from 0 and counting them in stats (which may be nil).
func faultHandler(next http.Handler, sched *faultSchedule, stats *faultStats) http.Handler {
	if stats == nil {
		stats = &faultStats{}
	}
	var calls atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		call := calls.Add(1) - 1
		kind := sched.decide(call)
		stats.count(kind)
		switch kind {
		case faultError:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(sched.plan.Status)
			fmt.Fprintf(w, `{"error":"injected fault (call %d)"}`, call)
		case faultDrop:
			// http.ErrAbortHandler aborts the response without a reply —
			// net/http closes the connection and the client sees EOF.
			panic(http.ErrAbortHandler)
		case faultTruncate:
			rec := &faultRecorder{header: make(http.Header)}
			next.ServeHTTP(rec, r)
			for k, vs := range rec.header {
				if k == "Content-Length" {
					continue
				}
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			w.WriteHeader(status)
			body := rec.body.Bytes()
			_, _ = w.Write(body[:len(body)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// faultRecorder buffers a downstream response so a truncate fault can cut
// it.
type faultRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *faultRecorder) Header() http.Header { return r.header }
func (r *faultRecorder) WriteHeader(s int) {
	if r.status == 0 {
		r.status = s
	}
}
func (r *faultRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func TestFaultScheduleDeterministic(t *testing.T) {
	plan := faultPlan{ErrorP: 0.2, DropP: 0.1, TruncateP: 0.1}
	a, b := newFaultSchedule(7, plan), newFaultSchedule(7, plan)
	other := newFaultSchedule(8, plan)
	diverged := false
	for i := int64(0); i < 1000; i++ {
		ka := a.decide(i)
		if kb := b.decide(i); ka != kb {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if other.decide(i) != ka {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical 1000-call schedules")
	}
}

func TestFaultScheduleRates(t *testing.T) {
	s := newFaultSchedule(1, faultPlan{ErrorP: 0.25, DropP: 0.25, TruncateP: 0.25})
	counts := map[faultKind]int{}
	const n = 4000
	for i := int64(0); i < n; i++ {
		counts[s.decide(i)]++
	}
	for _, k := range []faultKind{faultError, faultDrop, faultTruncate, faultNone} {
		frac := float64(counts[k]) / n
		if frac < 0.20 || frac > 0.30 {
			t.Fatalf("kind %d frequency %.3f, want ~0.25", k, frac)
		}
	}
}

// okHandler answers a fixed JSON document.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"answer": 42, "pad": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`))
	})
}

func TestFaultHandlerErrorStatus(t *testing.T) {
	sched := newFaultSchedule(1, faultPlan{ErrorP: 1, Status: http.StatusBadGateway})
	srv := httptest.NewServer(faultHandler(okHandler(), sched, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var v struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v.Error == "" {
		t.Fatalf("injected error body = (%+v, %v), want JSON error", v, err)
	}
}

func TestFaultHandlerDrop(t *testing.T) {
	srv := httptest.NewServer(faultHandler(okHandler(), newFaultSchedule(1, faultPlan{DropP: 1}), nil))
	defer srv.Close()
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("dropped connection answered successfully")
	}
}

func TestFaultHandlerTruncate(t *testing.T) {
	srv := httptest.NewServer(faultHandler(okHandler(), newFaultSchedule(1, faultPlan{TruncateP: 1}), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err == nil {
		t.Fatal("decoding a server-truncated body succeeded")
	}
}

// TestFaultConcurrentCallsRace sends 200 concurrent requests through a
// faulty handler: under -race the numbering and counting must be clean,
// and every request must be counted exactly once.
func TestFaultConcurrentCallsRace(t *testing.T) {
	var st faultStats
	sched := newFaultSchedule(3, faultPlan{ErrorP: 0.3, DropP: 0.2, TruncateP: 0.2})
	srv := httptest.NewServer(faultHandler(okHandler(), sched, &st))
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// A POST is not replayed by net/http when its connection
				// drops, so each request reaches the handler once.
				resp, err := http.Post(srv.URL, "application/json", strings.NewReader("{}"))
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if st.Calls.Load() != 200 {
		t.Fatalf("handler counted %d calls, want 200", st.Calls.Load())
	}
	if !st.fired() {
		t.Fatal("fault schedule never fired")
	}
}
