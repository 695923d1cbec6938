package gather

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/simtime"
)

// FuzzWorkRequest feeds arbitrary bytes to the worker's request parsing —
// the bounded read, decode and every check /work makes before a unit
// executes — and executes nothing. It must never panic, and a request it
// accepts must carry exactly its unit's 1 to 1024 shapes, each dimension in
// [1, 74 000] and, on the real backend, at most 500 MB of float32 operands;
// lie within the repetition and candidate bounds; carry its own fingerprint
// as Session; build its timer; and, on a -sim worker, ask for the
// simulator. The seed corpus is testdata/fuzz/FuzzWorkRequest.
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
			if u.Count < 1 || u.Count > 1024 || u.Count != len(wk.shapes) {
				t.Fatalf("accepted a unit of count %d with %d shapes", u.Count, len(wk.shapes))
			}
			for _, sh := range wk.shapes {
				if min(sh.M, sh.K, sh.N) < 1 || max(sh.M, sh.K, sh.N) > 74000 {
					t.Fatalf("accepted shape %v", sh)
				}
				if wk.op.Spec().Canon(sh) != sh {
					t.Fatalf("accepted shape %v, not canonical for %v", sh, wk.op)
				}
				if s.Timer.Backend != simtime.BackendSim && sh.Bytes(4) > 500*1000*1000 {
					t.Fatalf("accepted shape %v of %d bytes on the %q backend", sh, sh.Bytes(4), s.Timer.Backend)
				}
			}
			if s.Iters < 1 || s.Iters > 1000 || len(s.Candidates) < 1 || len(s.Candidates) > 64 {
				t.Fatalf("accepted %d iters over %d candidates", s.Iters, len(s.Candidates))
			}
			for _, c := range s.Candidates {
				if c < 1 || c > 4096 {
					t.Fatalf("accepted candidate %d", c)
				}
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
