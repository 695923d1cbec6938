package gather

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/sampling"
	"repro/internal/simtime"
)

// FuzzWorkRequest feeds arbitrary bytes to the worker's request parsing —
// the bounded read, decode and every check /work makes before a unit
// executes — and executes nothing. It must never panic, and a request it
// accepts must lie within every bound, carry its own fingerprint as
// Session, build its timer and, on a -sim worker, ask for the simulator.
// The seed corpus is testdata/fuzz/FuzzWorkRequest.
func FuzzWorkRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, requireSim := range []bool{false, true} {
			r := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes)
			wk, status, err := decodeWork(r, requireSim)
			if err != nil {
				if status < 400 || status > 499 {
					t.Fatalf("refusal %v answers HTTP %d, want a 4xx", err, status)
				}
				continue
			}
			s, u := wk.spec, wk.unit
			if u.Start < 0 || u.Count < 1 || u.Count > 1024 || u.Start+u.Count > 1<<20 {
				t.Fatalf("accepted unit [%d, %d)", u.Start, u.Start+u.Count)
			}
			if s.Iters < 1 || s.Iters > 1000 || len(s.Candidates) < 1 || len(s.Candidates) > 64 {
				t.Fatalf("accepted %d iters over %d candidates", s.Iters, len(s.Candidates))
			}
			for _, c := range s.Candidates {
				if c < 1 || c > 4096 {
					t.Fatalf("accepted candidate %d", c)
				}
			}
			if s.Domain.MaxDim > sampling.DefaultDomain().MaxDim || s.Domain.MaxBytes < 1000*1000 {
				t.Fatalf("accepted domain %+v", s.Domain)
			}
			if s.Session != s.Fingerprint() {
				t.Fatalf("accepted session %q, fingerprint %q", s.Session, s.Fingerprint())
			}
			if wk.timer == nil || wk.op.String() != s.Op {
				t.Fatalf("accepted op %q as %v with timer %v", s.Op, wk.op, wk.timer)
			}
			if requireSim && s.Timer.Backend != simtime.BackendSim {
				t.Fatalf("-sim worker accepted the %q backend", s.Timer.Backend)
			}
		}
	})
}
