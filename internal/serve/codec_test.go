package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeRequest holds the hand-written scanner to encoding/json on
// arbitrary bytes, for each of the three request types: it must decline, or
// produce exactly the value encoding/json decodes without error, and it must
// never panic. The seed corpus is testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		matchesJSON(t, body, (*scanner).predict)
		matchesJSON(t, body, (*scanner).batch)
		matchesJSON(t, body, (*scanner).measured)
	})
}

// matchesJSON fails t when the scanner accepts body as a T that differs
// from encoding/json's decoding of it. It reports whether the body was
// accepted.
func matchesJSON[T any](t *testing.T, body []byte, scan func(*scanner, *T) bool) bool {
	t.Helper()
	var got T
	if !canonical(&codec{buf: body}, &got, scan) {
		return false
	}
	var want T
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("%T: scanner accepted %q, encoding/json rejects it: %v", got, body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: %q decodes to %+v by hand, %+v by encoding/json", got, body, got, want)
	}
	return true
}

// TestCanonicalForm pins which bodies take the hand-written path: what
// json.Marshal (and so Client) sends, with any whitespace, is accepted;
// anything else is declined to encoding/json.
func TestCanonicalForm(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	for _, tc := range []struct {
		body   string
		accept bool
	}{
		{`{"m":512,"k":256,"n":384,"op":"gemm"}`, true},
		{`{"m":512,"k":256,"n":384}`, true},
		{` { "op" : "syr2k" ,` + "\n\t\r" + `"n":1, "m":2 } `, true},
		{`{"m":` + maxInt + `,"k":-` + maxInt + `,"n":0,"op":"x y"}`, true},
		{`{"m":-0}`, true},
		{`{}`, true},
		{`{"M":1}`, false},
		{`{"m":1,"x":2}`, false},
		{`{"m":1,"m":2}`, false},
		{`{"m":null}`, false},
		{`null`, false},
		{`{"m":1.0}`, false},
		{`{"m":1e3}`, false},
		{`{"m":01}`, false},
		{`{"m":-}`, false},
		{`{"m":"1"}`, false},
		{`{"m":1` + maxInt + `}`, false},
		{`{"op":"ge\u006dm"}`, false},
		{`{"op":"gémm"}`, false},
		{`{"m":1} {}`, false},
		{`{"m":1},`, false},
		{`{"m":1`, false},
		{``, false},
	} {
		if got := matchesJSON(t, []byte(tc.body), (*scanner).predict); got != tc.accept {
			t.Errorf("%q: accepted %v, want %v", tc.body, got, tc.accept)
		}
	}

	shapes := requests(OpSYRK, mixedShapes(16))
	shapes[3].Op = ""
	batch, _ := json.Marshal(BatchRequest{Shapes: shapes})
	records := make([]MeasuredRecord, len(shapes))
	for i, sh := range shapes {
		records[i] = MeasuredRecord{PredictRequest: sh, Threads: i + 1, MeasuredNs: math.MaxInt64 - int64(i)}
	}
	measured, _ := json.Marshal(MeasuredRequest{Records: records})
	indented, _ := json.MarshalIndent(MeasuredRequest{Records: records}, "", "\t")
	for _, body := range [][]byte{batch, []byte(`{"shapes":[]}`)} {
		if !matchesJSON(t, body, (*scanner).batch) {
			t.Errorf("/batch body %.60q…: declined, want accepted", body)
		}
	}
	for _, body := range [][]byte{measured, indented} {
		if !matchesJSON(t, body, (*scanner).measured) {
			t.Errorf("/measured body %.60q…: declined, want accepted", body)
		}
	}
	for _, body := range []string{
		`{"shapes":null}`,
		`{"shapes":[{"m":1}],"shapes":[{"k":2}]}`,
		`{"shapes":[{"m":1},]}`,
		`{"shapes":[1]}`,
		`{"records":[{"measured_ns":1.5}]}`,
		`{"records":[{"threads":1,"threads":2}]}`,
	} {
		b := []byte(body)
		if matchesJSON(t, b, (*scanner).batch) || matchesJSON(t, b, (*scanner).measured) {
			t.Errorf("%q: accepted, want declined", body)
		}
	}
}

// TestAppendParity holds the appended answers to json.Encoder byte for byte
// on random values: /predict with and without fallback and with any op
// string, /batch with and without the fallback slice, /measured.
func TestAppendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	anyInt := func() int {
		switch rng.Intn(4) {
		case 0:
			return math.MaxInt - rng.Intn(3)
		case 1:
			return math.MinInt + rng.Intn(3)
		}
		return rng.Intn(1<<16) - 1<<10
	}
	ops := []string{"gemm", "syrk", "syr2k", "", "a<b>&c", `q"\`, "é ", "\x00\x7f"}
	check := func(what string, got []byte, v any) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: appended %q, json.Encoder %q", what, got, want.Bytes())
		}
	}
	for i := 0; i < 2000; i++ {
		p := PredictResponse{M: anyInt(), K: anyInt(), N: anyInt(), Op: ops[rng.Intn(len(ops))],
			Threads: anyInt(), Fallback: rng.Intn(2) == 0}
		check("predict", appendPredict(nil, &p), p)

		var b BatchResponse
		if n := rng.Intn(20); n > 0 || rng.Intn(2) == 0 {
			b.Threads = make([]int, n)
		}
		for j := range b.Threads {
			b.Threads[j] = anyInt()
		}
		switch rng.Intn(3) {
		case 0:
			b.Fallback = make([]bool, len(b.Threads))
			for j := range b.Fallback {
				b.Fallback[j] = rng.Intn(2) == 0
			}
		case 1:
			b.Fallback = []bool{}
		}
		check("batch", appendBatch(nil, &b), b)

		m := MeasuredResponse{Accepted: anyInt()}
		check("measured", appendMeasured(nil, &m), m)
	}
}

// countingBody counts the bytes a handler reads from a request body.
type countingBody struct {
	r io.Reader
	n int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += n
	return n, err
}

func (*countingBody) Close() error { return nil }

// TestShedReadsNoBody pins the order admit → read: with every slot held and
// no queue, each limited route sheds with 429 before it reads a byte of its
// body.
func TestShedReadsNoBody(t *testing.T) {
	srv := NewServer(NewEngine(lib(t), Options{}), WithLimits(Limits{MaxInFlight: 1}))
	srv.limit.maxQueue = 0
	if !srv.limit.acquire(context.Background()) {
		t.Fatal("could not take the only slot")
	}
	defer srv.release()
	for _, path := range []string{"/predict", "/batch", "/measured"} {
		body := &countingBody{r: strings.NewReader(`{"shapes":[{"m":64,"k":64,"n":64}]}`)}
		req := httptest.NewRequest(http.MethodPost, path, nil)
		req.Body = body
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests || body.n != 0 {
			t.Errorf("%s with every slot held: HTTP %d after reading %d body bytes, want 429 after 0", path, rec.Code, body.n)
		}
	}
}
