package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// The request/response codec of POST /predict, /batch and /measured. A body
// is read once, whole, into a pooled buffer. The canonical wire form — what
// json.Marshal and Client send — is parsed by hand; any other body goes to
// encoding/json unchanged, so which bodies are accepted and every 400 message
// are encoding/json's. The plain answers are appended into the same buffer,
// byte for byte what json.Encoder writes.

// codec is one request's pooled scratch: the body it read and then the
// answer it writes, and the decoded /predict, /batch or /measured request,
// whose slices keep their capacity from one request to the next.
type codec struct {
	buf      []byte
	scan     scanner // here rather than on the stack: scan funcs are called indirectly
	predict  PredictRequest
	batch    BatchRequest
	measured MeasuredRequest
}

var codecs = sync.Pool{New: func() any { return new(codec) }}

// What a pooled codec keeps between requests, in buffer bytes and in request
// slots: a maximal /batch must not pin megabytes in the pool.
const (
	maxPooledBytes = 64 << 10
	maxPooledSlots = 1 << 10
)

func newCodec() *codec { return codecs.Get().(*codec) }

// free returns c to the pool; nothing it holds may be used afterwards.
func (c *codec) free() {
	if cap(c.buf) > maxPooledBytes {
		c.buf = nil
	}
	if cap(c.batch.Shapes) > maxPooledSlots {
		c.batch.Shapes = nil
	}
	if cap(c.measured.Records) > maxPooledSlots {
		c.measured.Records = nil
	}
	c.scan = scanner{} // it aliases the body, which may just have been dropped
	codecs.Put(c)
}

// decode reads the whole request body, of at most limit bytes, into c.buf
// and parses it into v, overwriting it: by hand when the body is in the
// canonical form, else through encoding/json — the reference path, whose
// error is the route's 400 message. A failure comes with its status: 413
// when the body ran past the bound, 400 for anything else.
func decode[T any](c *codec, w http.ResponseWriter, r *http.Request, limit int64, v *T, scan func(*scanner, *T) bool) (status int, err error) {
	// A loop rather than bytes.Buffer.ReadFrom: with the reader's concrete
	// type in sight the compiler keeps it off the heap.
	body := http.MaxBytesReader(w, r.Body, limit)
	c.buf = c.buf[:0]
	for err != io.EOF {
		if len(c.buf) == cap(c.buf) {
			c.buf = slices.Grow(c.buf, 512)
		}
		var n int
		n, err = body.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err != nil && err != io.EOF {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return http.StatusRequestEntityTooLarge, err
			}
			return http.StatusBadRequest, err
		}
	}
	if canonical(c, v, scan) {
		return http.StatusOK, nil
	}
	*v = *new(T)
	if err := json.NewDecoder(bytes.NewReader(c.buf)).Decode(v); err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// canonical parses c.buf into v by hand and reports whether the body was in
// the canonical form; v is overwritten either way.
func canonical[T any](c *codec, v *T, scan func(*scanner, *T) bool) bool {
	c.scan = scanner{b: c.buf}
	return scan(&c.scan, v) && c.scan.end()
}

// reply writes an appended 200 answer as writeJSON would.
func reply(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// scanner walks a request body in the canonical wire form: JSON whitespace,
// exact lower-case keys, each at most once, integer literals that fit their
// field, op strings of printable ASCII without escapes. Every method returns
// false — declines — at the first byte outside that form.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skip() {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// token consumes c after any whitespace.
func (s *scanner) token(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (s *scanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

// str scans a string and returns its bytes, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.token('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// integer scans an integer literal in JSON grammar that fits a signed
// integer of the given bits: no fraction, exponent or leading zero.
func (s *scanner) integer(bits int) (int64, bool) {
	s.skip()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	start := s.i
	var u uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if digits := s.i - start; digits == 0 || digits > 1 && s.b[start] == '0' {
		return 0, false
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

func (s *scanner) intValue(dst *int) bool {
	v, ok := s.integer(strconv.IntSize)
	*dst = int(v)
	return ok
}

func (s *scanner) int64Value(dst *int64) bool {
	v, ok := s.integer(64)
	*dst = v
	return ok
}

// op scans an op name. A registered name (or "") is stored as the registry's
// own string, so the hit path allocates nothing; any other name is copied
// for ParseOp to reject.
func (s *scanner) op(dst *string) bool {
	name, ok := s.str()
	if !ok {
		return false
	}
	*dst = ""
	if len(name) == 0 {
		return true
	}
	for op := Op(0); op.Valid(); op++ {
		if reg := op.String(); string(name) == reg {
			*dst = reg
			return true
		}
	}
	*dst = string(name)
	return true
}

// object scans one JSON object. field scans the value of one key and returns
// the key's bit in a set of at most eight, so that a repeated key declines:
// encoding/json keeps the last, and the reference path does that.
func (s *scanner) object(field func(key []byte) (bit uint8, ok bool)) bool {
	if !s.token('{') {
		return false
	}
	if s.token('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.token(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.token(',') {
			return s.token('}')
		}
	}
}

// list scans a JSON array into dst's backing array, one elem per value. An
// empty array is an empty slice, not nil, as in encoding/json.
func list[T any](s *scanner, dst []T, elem func(*scanner, *T) bool) ([]T, bool) {
	if dst == nil {
		dst = []T{}
	}
	dst = dst[:0]
	if !s.token('[') {
		return dst, false
	}
	if s.token(']') {
		return dst, true
	}
	for {
		dst = append(dst, *new(T))
		if !elem(s, &dst[len(dst)-1]) {
			return dst, false
		}
		if !s.token(',') {
			return dst, s.token(']')
		}
	}
}

// shape scans the value of one wire-shape key into r: the fields of a
// /predict body, a /batch slot and a /measured record.
func (s *scanner) shape(key []byte, r *PredictRequest) (uint8, bool) {
	switch string(key) {
	case "m":
		return 1 << 0, s.intValue(&r.M)
	case "k":
		return 1 << 1, s.intValue(&r.K)
	case "n":
		return 1 << 2, s.intValue(&r.N)
	case "op":
		return 1 << 3, s.op(&r.Op)
	}
	return 0, false
}

func (s *scanner) predict(r *PredictRequest) bool {
	*r = PredictRequest{}
	return s.object(func(key []byte) (uint8, bool) { return s.shape(key, r) })
}

func (s *scanner) record(r *MeasuredRecord) bool {
	*r = MeasuredRecord{}
	return s.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "threads":
			return 1 << 4, s.intValue(&r.Threads)
		case "measured_ns":
			return 1 << 5, s.int64Value(&r.MeasuredNs)
		}
		return s.shape(key, &r.PredictRequest)
	})
}

func (s *scanner) batch(r *BatchRequest) bool {
	shapes := r.Shapes
	*r = BatchRequest{}
	return s.object(func(key []byte) (uint8, bool) {
		if string(key) != "shapes" {
			return 0, false
		}
		var ok bool
		r.Shapes, ok = list(s, shapes, (*scanner).predict)
		return 1, ok
	})
}

func (s *scanner) measured(r *MeasuredRequest) bool {
	records := r.Records
	*r = MeasuredRequest{}
	return s.object(func(key []byte) (uint8, bool) {
		if string(key) != "records" {
			return 0, false
		}
		var ok bool
		r.Records, ok = list(s, records, (*scanner).record)
		return 1, ok
	})
}

// appendPredict appends the plain /predict answer (no detail fields) as
// json.Encoder writes it, trailing newline included.
func appendPredict(b []byte, r *PredictResponse) []byte {
	b = append(b, `{"m":`...)
	b = strconv.AppendInt(b, int64(r.M), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"op":`...)
	b = appendString(b, r.Op)
	b = append(b, `,"threads":`...)
	b = strconv.AppendInt(b, int64(r.Threads), 10)
	if r.Fallback {
		b = append(b, `,"fallback":true`...)
	}
	return append(b, "}\n"...)
}

// appendBatch appends the /batch answer as json.Encoder writes it.
func appendBatch(b []byte, r *BatchResponse) []byte {
	b = append(b, `{"threads":`...)
	if r.Threads == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range r.Threads {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
		b = append(b, ']')
	}
	if len(r.Fallback) > 0 {
		b = append(b, `,"fallback":[`...)
		for i, fb := range r.Fallback {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, fb)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendMeasured appends the /measured answer as json.Encoder writes it.
func appendMeasured(b []byte, r *MeasuredResponse) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(r.Accepted), 10)
	return append(b, "}\n"...)
}

// appendString appends s quoted as encoding/json quotes it. Op names are
// plain ASCII and copy through; a string json would escape (quotes,
// backslashes, control bytes, HTML metacharacters, non-ASCII) takes
// json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
