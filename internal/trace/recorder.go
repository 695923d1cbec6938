package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options configures a Recorder. The zero value selects the defaults.
type Options struct {
	// MaxFileBytes is the underlying Writer's size-based rotation threshold
	// (0 selects 64 MiB).
	MaxFileBytes int64
}

// tuning is the recorder's buffering policy. Every daemon runs with
// defaultTuning; tests in this package pass their own to open.
type tuning struct {
	// bufRecords is the capacity of the record buffer (and of its spare).
	// Records offered while it is full — the drain is more than one tick
	// behind — are dropped and counted instead of blocking the request path.
	bufRecords int
	// flushInterval bounds how long an encoded partial block may sit in
	// memory before it is written out, so a lightly loaded daemon's trace
	// stays near-real-time on disk.
	flushInterval time.Duration
}

var defaultTuning = tuning{bufRecords: 8192, flushInterval: 500 * time.Millisecond}

// drainTick is how often the drain goroutine swaps the buffer out.
const drainTick = 2 * time.Millisecond

// Recorder is the flight recorder: producers write records into a
// fixed-size buffer under one lock; every drainTick a background goroutine
// swaps that buffer for its spare and encodes the full one, with the lock
// released, into a rotating block Writer. Record never blocks on I/O and
// never allocates; Close flushes everything that was accepted.
type Recorder struct {
	start time.Time
	tune  tuning

	mu      sync.Mutex
	buf     []Record // len bufRecords; buf[:n] holds the accepted records
	n       int
	lastTS  int64 // TS of the last accepted record
	stopped bool  // closed, or a write error stopped the drain: records drop
	records int64
	dropped int64
	err     error // first writer error

	spare   []Record     // the drain goroutine's half of the swap
	failed  bool         // drain goroutine only: the writer returned an error
	written atomic.Int64 // bytes on disk (mirrors Writer.BytesWritten)

	w        *Writer
	closeCh  chan struct{}
	flushReq chan chan struct{}
	done     chan struct{}
	once     sync.Once
}

// Open starts a flight recorder writing `<prefix>-NNNNN.trace` files.
func Open(prefix string, opts Options) (*Recorder, error) {
	return open(prefix, opts, defaultTuning)
}

func open(prefix string, opts Options, tune tuning) (*Recorder, error) {
	start := time.Now()
	w, err := NewWriter(prefix, start, WriterOptions{MaxFileBytes: opts.MaxFileBytes})
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		start:    start,
		tune:     tune,
		buf:      make([]Record, tune.bufRecords),
		spare:    make([]Record, tune.bufRecords),
		w:        w,
		closeCh:  make(chan struct{}),
		flushReq: make(chan chan struct{}),
		done:     make(chan struct{}),
	}
	r.written.Store(w.BytesWritten())
	go r.drain()
	return r, nil
}

// Record stamps the event time onto rec and stores it in the buffer. A
// record that took the lock after a later-stamped one is clamped to that
// one's time, so records reach the writer in timestamp order. It never
// waits for the drain's encoding or I/O: when the buffer is full (the drain
// goroutine is behind), or the recorder is closed or has failed, the record
// is dropped and counted instead, so tracing can never stall the serving
// path that produced the event.
//
//adsala:zeroalloc
func (r *Recorder) Record(rec Record) {
	rec.TS = int64(time.Since(r.start))
	r.mu.Lock()
	if r.stopped || r.n == len(r.buf) {
		r.dropped++
	} else {
		rec.TS = max(rec.TS, r.lastTS)
		r.lastTS = rec.TS
		r.buf[r.n] = rec
		r.n++
		r.records++
	}
	r.mu.Unlock()
}

// drain is the single consumer: every drainTick it moves the buffered
// records into the block writer, flushes partial blocks on the flush
// interval, and performs the final flush at Close.
func (r *Recorder) drain() {
	defer close(r.done)
	ticker := time.NewTicker(drainTick)
	defer ticker.Stop()
	lastFlush := time.Now()
	for {
		select {
		case <-r.closeCh:
			r.drainBuffered()
			r.writerDo(r.w.Close())
			r.written.Store(r.w.BytesWritten())
			return
		case ack := <-r.flushReq:
			r.drainBuffered()
			if !r.failed {
				r.writerDo(r.w.Flush())
			}
			r.written.Store(r.w.BytesWritten())
			lastFlush = time.Now()
			close(ack)
		case <-ticker.C:
			r.drainBuffered()
			if time.Since(lastFlush) >= r.tune.flushInterval && !r.failed {
				r.writerDo(r.w.Flush())
				lastFlush = time.Now()
			}
			r.written.Store(r.w.BytesWritten())
		}
	}
}

// drainBuffered swaps the filled buffer for the spare under the lock, then
// appends its records to the writer with the lock released.
func (r *Recorder) drainBuffered() {
	r.mu.Lock()
	full := r.buf[:r.n]
	r.buf, r.spare = r.spare, r.buf
	r.n = 0
	r.mu.Unlock()
	for i := 0; i < len(full) && !r.failed; i++ {
		r.writerDo(r.w.Append(&full[i]))
	}
}

// writerDo latches the first writer error and stops the recorder: a trace
// that can no longer be written (disk full, file removed) must not take the
// daemon down with it, so recording degrades to counting drops.
func (r *Recorder) writerDo(err error) {
	if err == nil || r.failed {
		return
	}
	r.failed = true
	r.mu.Lock()
	r.err = err
	r.stopped = true
	r.mu.Unlock()
}

// Flush blocks until everything accepted so far is drained and written
// through to the current file — the test and tooling hook; the daemon path
// relies on the flush interval and Close. The drain goroutine owns the
// writer, so the flush runs over there and this call synchronises with it.
func (r *Recorder) Flush() {
	ack := make(chan struct{})
	select {
	case r.flushReq <- ack:
		select {
		case <-ack:
		case <-r.done:
		}
	case <-r.done:
	}
}

// Close stops the recorder: subsequent records drop, the buffer drains, the
// final partial block flushes, and the current file closes. It returns the
// first writer error encountered over the recorder's lifetime.
func (r *Recorder) Close() error {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.once.Do(func() { close(r.closeCh) })
	<-r.done
	return r.Err()
}

// Records returns how many records have been accepted into the buffer.
func (r *Recorder) Records() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records
}

// Dropped returns how many records were dropped (buffer full, recorder
// closed, or the writer failed).
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// BytesWritten returns the bytes written to disk so far.
func (r *Recorder) BytesWritten() int64 { return r.written.Load() }

// Err returns the first writer error, if any (records drop once it is set).
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// RegisterMetrics exposes the recorder's counters on a metrics registry:
// adsala_trace_records_total, adsala_trace_dropped_total and the
// adsala_trace_bytes_written gauge.
func (r *Recorder) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("adsala_trace_records_total",
		"Flight-recorder records accepted into the trace buffer.",
		func() float64 { return float64(r.Records()) })
	reg.CounterFunc("adsala_trace_dropped_total",
		"Flight-recorder records dropped (buffer full, recorder closed, or write failure).",
		func() float64 { return float64(r.Dropped()) })
	reg.GaugeFunc("adsala_trace_bytes_written",
		"Trace bytes written to disk across file rotations.",
		func() float64 { return float64(r.written.Load()) })
}
