package blas

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The thread team's two waiting constants.
const (
	// spinBurst is how many times a waiter re-loads the word it waits on,
	// with a spin hint in between, before it yields the processor once. A
	// burst is about a microsecond: long enough that a peer running on
	// another core is seen without a scheduler round-trip, short enough
	// that with fewer processors than parts (threads > GOMAXPROCS,
	// GOMAXPROCS = 1, several callers) the peer that must run next is
	// never kept waiting for more than that.
	spinBurst = 16
	// lingerBound is how long a worker keeps polling for the next round
	// after finishing one before it parks on its channel. It is the
	// analogue of OpenMP's block time (KMP_BLOCKTIME, 200 ms by default in
	// the paper's MKL), kept a constant and three orders of magnitude
	// shorter: it has to span the gap between back-to-back BLAS calls and
	// between SYR2K's two passes, not an application's serial sections, and
	// what it costs is one otherwise idle core polling for at most this
	// long after the last parallel call.
	lingerBound = 500 * time.Microsecond
)

// spinWait is the team's one wait primitive: it returns the value of *v once
// that differs from old — or, when deadline is not the zero time, once the
// deadline has passed, in which case the value returned may still be old. It
// polls in bursts of spinBurst loads separated by a spin hint (PAUSE on
// amd64; elsewhere the re-load is the hint), yields with runtime.Gosched
// after every burst, and reads the clock only then. The yield is what keeps
// every wait live when there are more waiters than processors.
//
//adsala:zeroalloc
func spinWait(v *atomic.Uint64, old uint64, deadline time.Time) uint64 {
	for {
		for i := 0; i < spinBurst; i++ {
			if cur := v.Load(); cur != old {
				return cur
			}
			spinHint()
		}
		runtime.Gosched()
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return v.Load()
		}
	}
}

// team is a persistent group of worker goroutines. Workers are spawned once
// (per Context, not per call and certainly not per blocking iteration). A
// round is published with one atomic store of the round word; a worker that
// finished a round lingers on that word with spinWait for lingerBound, so
// back-to-back parallel calls dispatch without a scheduler round-trip, and
// only then parks on its channel, from which the next round wakes it with a
// send — the "fork" half of the paper's fork/join overhead is a store in the
// steady state and a wake-up after an idle spell. The join is the same wait
// on a count of parts still running.
//
// The worker goroutines reference only the inner teamState, never the team
// or its owning Context. That keeps the owner collectible: a GC cleanup on
// the Context closes quit and the parked workers exit, so Contexts dropped
// from a sync.Pool do not leak goroutines.
type team struct {
	st   *teamState
	size int // worker goroutine count (excludes the calling goroutine)
}

type teamState struct {
	wake   []chan struct{}
	parked []atomic.Bool // worker i is blocked, or about to block, on wake[i]
	quit   chan struct{}
	stop   sync.Once
	job    func(w int)
	// round is generation<<32 | parts: one word, so a worker can never pair
	// one round's generation with another's part count.
	round   atomic.Uint64
	running atomic.Uint64 // parts of the current round not yet finished
}

func newTeam(workers int) *team {
	st := &teamState{
		wake:   make([]chan struct{}, workers),
		parked: make([]atomic.Bool, workers),
		quit:   make(chan struct{}),
	}
	for i := range st.wake {
		st.wake[i] = make(chan struct{}, 1)
		go teamWorker(st, i)
	}
	return &team{st: st, size: workers}
}

// teamWorker runs part id+1 of every round that has one. Between rounds it
// lingers on the round word, then parks: it raises its parked flag, checks
// the word once more — a round published between the last poll and the flag
// would otherwise be a lost wake-up — and blocks until run wakes it or the
// team is closed. Whoever wins the flag by CAS owns the wake-up: if run won,
// a token is on its way and the worker takes it from the channel; if the
// worker took its flag back, none is.
func teamWorker(st *teamState, id int) {
	var seen uint64
	deadline := time.Now().Add(lingerBound)
	for {
		r := spinWait(&st.round, seen, deadline)
		if r == seen {
			st.parked[id].Store(true)
			if st.round.Load() != seen && st.parked[id].CompareAndSwap(true, false) {
				continue
			}
			select {
			case <-st.wake[id]:
				continue
			case <-st.quit:
				return
			}
		}
		seen = r
		if id+1 < int(uint32(r)) {
			st.job(id + 1)
			st.running.Add(^uint64(0))
			deadline = time.Now().Add(lingerBound)
		}
	}
}

// run executes job(w) for w in [0, parts), with the caller as part 0 and one
// worker per remaining part, and returns when all parts finish. The job is
// published before the round word and the running count closes the round,
// so run allocates nothing; only workers that had parked cost a channel
// send. The job must not panic (the drivers' job recovers). parts-1 must
// not exceed the team size.
//
//adsala:zeroalloc
func (t *team) run(parts int, job func(w int)) {
	if parts <= 1 {
		job(0)
		return
	}
	st := t.st
	st.job = job
	st.running.Store(uint64(parts - 1))
	st.round.Store((st.round.Load()>>32+1)<<32 | uint64(parts))
	for i := 0; i < parts-1; i++ {
		if st.parked[i].CompareAndSwap(true, false) {
			st.wake[i] <- struct{}{}
		}
	}
	job(0)
	for n := st.running.Load(); n != 0; {
		n = spinWait(&st.running, n, time.Time{})
	}
	// Drop the closure reference: the job closes over the owning Context,
	// and the workers keep st alive, so a retained job would keep a
	// pool-evicted Context reachable and block its GC cleanup (leaking the
	// workers themselves).
	st.job = nil
}

// close releases the team's workers: a parked worker exits at once, a
// lingering one when it parks, at most lingerBound later. Idempotent; must
// not race with run (owners only stop teams between calls).
func (st *teamState) close() {
	st.stop.Do(func() { close(st.quit) })
}

// barrier is a centralised sense-reversing barrier whose waiters use
// spinWait: phases are compute-bound and a few microseconds long, so the
// peers of a part usually arrive within one burst. It also carries the
// round's fault: a part that panics poisons the barrier, which releases the
// peers waiting in it — they would otherwise wait for ever for an arrival
// that cannot come — and fails every later wait of the round, so all parts
// unwind and the join completes.
type barrier struct {
	n      int32
	count  atomic.Int32
	gen    atomic.Uint64
	broken atomic.Bool
	// The first panic of the round, written by the part that won broken and
	// read by the caller after the join.
	faultPart  int
	faultValue any
}

// reset prepares the barrier for a round of waits by n participants and
// clears a previous round's fault. Must not be called while a wait is in
// flight.
func (b *barrier) reset(n int) {
	b.n = int32(n)
	b.count.Store(0)
	b.gen.Store(0)
	b.broken.Store(false)
	b.faultPart, b.faultValue = 0, nil
}

// wait blocks until all n participants arrive and reports true, or reports
// false as soon as the barrier is poisoned; the part must then return
// without touching shared state. The last arriver reopens the barrier for
// the next phase before advancing the generation, so back-to-back waits are
// safe. The generation is read before the poison flag and poison sets the
// flag before it advances the generation, so a waiter either sees the flag
// or sees the generation move.
//
//adsala:zeroalloc
func (b *barrier) wait() bool {
	if b.n <= 1 {
		return true
	}
	g := b.gen.Load()
	if b.broken.Load() {
		return false
	}
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return true
	}
	spinWait(&b.gen, g, time.Time{})
	return !b.broken.Load()
}

// recoverPart is deferred around part w of a job: it turns a panic into the
// round's fault (the first one wins) and poisons the barrier.
func (b *barrier) recoverPart(w int) {
	v := recover()
	if v == nil {
		return
	}
	if b.broken.CompareAndSwap(false, true) {
		b.faultPart, b.faultValue = w, v
	}
	b.gen.Add(1)
}
