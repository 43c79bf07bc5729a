package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/workload"
)

// benchBody is the body the wire workloads post: a full 256-offer epoch of
// the drive stream, as json.Marshal writes it.
func benchBody(t testing.TB) []byte {
	t.Helper()
	body, err := json.Marshal(Arrivals(400, DriveConfig{Count: 256, Seed: 1, MeanHoldSec: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// nested wraps the value v in depth arrays.
func nested(depth int, v string) string {
	return strings.Repeat("[", depth) + v + strings.Repeat("]", depth)
}

// decodeHazards are the inputs where a hand-written decoder most easily
// departs from encoding/json.
var decodeHazards = []string{
	// Key matching: case folding (ASCII, the long s and the Kelvin sign),
	// escaped key names, near misses.
	`{"QUERY":1,"At_Sec":2.5,"HOLD_sec":3,"Term":4}`,
	// Go escapes spell the runes raw; JSON escapes, in raw strings, spell them escaped.
	"{\"query\":1,\"at_\u017fec\":2}",
	`{"query":1,"at_\u017fec":2}`,
	"{\"query\":1,\"hold_\u017fec\":0.5,\"\u212a\":1,\"\u212a\":2}",
	`{"\u0071uery":7}`,
	`{"qu\u0065ry":7,"\u0041T_SEC":1}`,
	`{"query\u0000":7,"query":8}`,
	`{"query ":7}`,
	`{"queryx":7,"query":1}`,
	"{\"\u0131erm\":1,\"query\":2,\"term\u017f\":3}",
	`{"\ud800query":1,"query":2}`,
	`{"\ud834\udd1e":1,"query":2}`,
	// Duplicates: the last wins; a later null keeps the earlier value.
	`{"query":1,"query":2}`,
	`{"query":1,"QUERY":3}`,
	`{"query":5,"query":null}`,
	`{"query":null,"query":5}`,
	`{"query":1,"at_sec":2,"at_sec":null}`,
	// Unknown keys, whatever their value.
	`{"x":{"a":[1,2,{"b":null}],"c":"\"\\\/\b\f\n\r\t\u00e9"},"query":1,"y":[],"z":{},"w":true,"v":false,"u":-0.5e-3}`,
	"{\"x\":\"\xff\xfe invalid utf-8\",\"query\":2}",
	"{\"x\":\"\x01\",\"query\":2}",
	`{"x":"\q","query":2}`,
	`{"x":"\u12","query":2}`,
	`{"x":01,"query":2}`,
	`{"x":1.,"query":2}`,
	`{"x":-,"query":2}`,
	`{"x":.5,"query":2}`,
	`{"x":+1,"query":2}`,
	`{"x":1e,"query":2}`,
	`{"x":tru,"query":2}`,
	`{"x":nul,"query":2}`,
	`{"x":[1,],"query":2}`,
	`{"x":{"a":1,},"query":2}`,
	`{"x":{"a"},"query":2}`,
	`{"x":{1:2},"query":2}`,
	// Null fields leave the zero value.
	`{"query":3,"at_sec":null,"hold_sec":null,"term":null}`,
	// Integers refuse fractions, exponents, overflow and non-numbers.
	`{"query":1.0}`,
	`{"query":1e2}`,
	`{"query":1E+2}`,
	`{"query":-0}`,
	`{"query":9223372036854775807}`,
	`{"query":9223372036854775808}`,
	`{"query":-9223372036854775808,"term":-9223372036854775808}`,
	`{"query":1,"term":9223372036854775808}`,
	`{"query":1,"term":-9223372036854775809}`,
	`{"query":000}`,
	`{"query":"1"}`,
	`{"query":true}`,
	`{"query":[1]}`,
	`{"query":{}}`,
	`{"query":1,"term":1.5}`,
	// Floats: exponent forms, signed zero, underflow, overflow.
	`{"query":1,"at_sec":1e400}`,
	`{"query":1,"at_sec":-1e400}`,
	`{"query":1,"at_sec":1e-400,"hold_sec":-0.0}`,
	`{"query":1,"at_sec":4.9e-324,"hold_sec":1.7976931348623157e308}`,
	`{"query":1,"at_sec":12345678901234567890.123456789e-5}`,
	`{"query":1,"at_sec":"1"}`,
	`{"query":1,"at_sec":true}`,
	// Whatever follows the first value is ignored.
	`{"query":1} trailing garbage`,
	`[{"query":1}]]`,
	`{"query":1}{"query":2}`,
	// Whitespace, and bodies that are not requests.
	" \t\r\n{ \"query\" : 4 , \"at_sec\" : 1 } ",
	" \n[ {\"query\":4} , {\"query\":5} ] ",
	``,
	`   `,
	`null`,
	`{}`,
	`[null]`,
	`[{"query":1},null]`,
	`[{}]`,
	`[]`,
	`[ ]`,
	`[`,
	`{`,
	`{"query":1`,
	`[{"query":1}`,
	`[{"query":1},]`,
	`[{"query":1} {"query":2}]`,
	`{"query":1,}`,
	`{"query" 1}`,
	`1`,
	`"x"`,
	`true`,
	`nul`,
	"\xef\xbb\xbf{\"query\":1}",
	`[[{"query":1}]]`,
	`[1]`,
	`{"query":1,"x":` + nested(3, "0") + `}`,
}

// TestDecodeNestingLimit checks encoding/json's nesting limit at its edge,
// in a single request and in a batch: 10 000 open arrays and objects pass,
// one more is refused. The bodies are too large to be useful fuzz seeds.
func TestDecodeNestingLimit(t *testing.T) {
	for _, body := range []string{
		`{"query":1,"x":` + nested(9999, "0") + `}`,
		`{"query":1,"x":` + nested(10000, "0") + `}`,
		`[{"query":1,"x":` + nested(9998, "0") + `}]`,
		`[{"query":1,"x":` + nested(9999, "0") + `}]`,
	} {
		checkDecode(t, []byte(body))
	}
}

// queryNamed records whether a request's "query" key held a non-null value.
// Decoded beside the reference, it applies the one narrowing made on
// purpose: a request that names no query is refused.
type queryNamed bool

func (q *queryNamed) UnmarshalJSON(b []byte) error {
	if string(b) != "null" {
		*q = true
	}
	return nil
}

type namedProbe struct {
	Query queryNamed `json:"query"`
}

// referenceVerdict decodes body the old way and applies the documented
// narrowings; ok is false when the new decoder must refuse the body.
func referenceVerdict(body []byte) (reqs []AdmitRequest, single, ok bool) {
	reqs, single, err := referenceDecode(bytes.NewReader(body))
	if err != nil || len(reqs) == 0 {
		return nil, false, false
	}
	var raw json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); err != nil {
		return nil, false, false
	}
	probes := make([]namedProbe, 1)
	if single {
		err = json.Unmarshal(raw, &probes[0])
	} else {
		err = json.Unmarshal(raw, &probes)
	}
	if err != nil {
		return nil, false, false
	}
	for _, p := range probes {
		if !p.Query {
			return nil, false, false
		}
	}
	return reqs, single, true
}

// checkDecode requires decodeAdmit to agree with the reference on body.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantSingle, ok := referenceVerdict(body)
	got, single, err := decodeAdmit(body, nil)
	if !ok {
		if err == nil {
			t.Fatalf("decoder accepted %q, which the reference refuses: %+v", body, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("decoder refused %q (%v); the reference decodes %+v", body, err, want)
	}
	if single != wantSingle || len(got) != len(want) {
		t.Fatalf("%q: decoded %d requests (single %v), reference %d (single %v)", body, len(got), single, len(want), wantSingle)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Query != w.Query || g.Term != w.Term ||
			math.Float64bits(g.AtSec) != math.Float64bits(w.AtSec) ||
			math.Float64bits(g.HoldSec) != math.Float64bits(w.HoldSec) {
			t.Fatalf("%q: request %d decoded %+v, reference %+v", body, i, g, w)
		}
	}
}

// FuzzAdmitDecode holds the /admit decoder to the encoding/json path it
// replaced: on every input both yield the same requests, or both refuse it —
// except a request naming no query, which only the new decoder refuses. The
// seeds are the bench's 256-offer body, a single offer, and every hazard of
// encoding/json's decoding.
func FuzzAdmitDecode(f *testing.F) {
	f.Add(benchBody(f))
	f.Add([]byte(`{"query":12,"at_sec":0.0123456789,"hold_sec":0.25}`))
	for _, h := range decodeHazards {
		f.Add([]byte(h))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeAllocs pins the decoder's cost: a 256-offer body decodes into
// the handler's reused request slice with no allocation.
func TestDecodeAllocs(t *testing.T) {
	body := benchBody(t)
	reqs := make([]AdmitRequest, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if reqs, _, err = decodeAdmit(body, reqs); err != nil || len(reqs) != 256 {
			t.Fatalf("decoded %d requests: %v", len(reqs), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a 256-offer body decodes with %.1f allocations, want 0", allocs)
	}
}

// encodeShapes are the AdmitResponse shapes /admit answers with.
func encodeShapes() map[string]AdmitResponse {
	return map[string]AdmitResponse{
		"admitted": {Query: 3, Admitted: true, AtSec: 0.125, Epoch: 9,
			Assignments: []Assignment{{Dataset: 1, Node: 17}, {Dataset: 4, Node: 2}}, Dataset: -1, Node: -1},
		"rejected": {Query: 11, AtSec: 2.5e-7, Epoch: 1, Reason: instrument.ReasonCapacity, Dataset: 4, Node: 28},
		"fenced":   {Query: 5, AtSec: 1e21, Reason: instrument.ReasonLeaderFailover, Dataset: -1, Node: -1, Term: 3},
		"stages": {Query: 0, Admitted: true, AtSec: 12345.678, Epoch: 70000,
			Assignments: []Assignment{{Dataset: 0, Node: 0}}, Dataset: -1, Node: -1,
			StageNs: []int64{1200, 0, 35, 4100, 900, 125000, 77}},
		"term":     {Query: 1 << 40, Admitted: true, AtSec: -0.0, Epoch: 2, Dataset: -1, Node: -1, Term: 1 << 62},
		"escaped":  {Query: 2, Reason: instrument.Reason("<a&b>\"\\/\n\t\b\f\r\x01\x1f\x7f \u00e9 \u2028\u2029 \xff\xc3"), Dataset: -1, Node: -1},
		"empty":    {Dataset: -1, Node: -1, Assignments: []Assignment{}, StageNs: []int64{}},
		"negative": {Query: -4, AtSec: -1e-7, Epoch: -1, Dataset: math.MinInt64, Node: math.MaxInt64, Term: -9},
	}
}

// checkEncode requires appendAdmitReply to write what json.Encoder writes.
func checkEncode(t *testing.T, name string, resps []AdmitResponse, single bool) {
	t.Helper()
	var want bytes.Buffer
	wantErr := referenceEncode(&want, resps, single)
	got, err := appendAdmitReply(nil, resps, single)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", name, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s (single %v):\nappender      %s\nencoding/json %s", name, single, got, want.Bytes())
	}
}

// TestAdmitEncodeMatchesReference requires byte-identical reply bodies for
// every response shape (admitted, rejected with a reason, term-fenced, with
// stages, with a term), alone and in a batch, then for floats across the
// format cut-offs and random responses.
func TestAdmitEncodeMatchesReference(t *testing.T) {
	shapes := encodeShapes()
	var all []AdmitResponse
	for name, r := range shapes {
		checkEncode(t, name, []AdmitResponse{r}, true)
		checkEncode(t, name, []AdmitResponse{r}, false)
		checkEncode(t, name, []AdmitResponse{r, r}, false)
		all = append(all, r)
	}
	checkEncode(t, "all shapes", all, false)
	checkEncode(t, "empty batch", []AdmitResponse{}, false)

	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21,
		math.Nextafter(1e21, 0), 1e20, 123456789.125, 5e-324, math.MaxFloat64, -1.5e-10,
		1e-100, 1e100, 0.1, 1.0 / 3, 100, 1e-9, 1.5e-300, -1e21} {
		checkEncode(t, "float", []AdmitResponse{{AtSec: f}}, true)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncode(t, "non-finite", []AdmitResponse{{AtSec: f}}, true)
		checkEncode(t, "non-finite", []AdmitResponse{{}, {AtSec: f}}, false)
	}

	rng := rand.New(rand.NewSource(7))
	reasons := []instrument.Reason{"", instrument.ReasonCapacity, instrument.ReasonLeaderFailover, instrument.ReasonDeadline}
	for i := 0; i < 3000; i++ {
		r := AdmitResponse{
			Query: workload.QueryID(rng.Int63n(1 << 20)), Admitted: rng.Intn(2) == 0, Epoch: rng.Int63(),
			Reason: reasons[rng.Intn(len(reasons))], Dataset: rng.Int63n(100) - 1, Node: rng.Int63n(1000) - 1,
		}
		for {
			// Random bits cover every exponent; a few in a hundred are NaN
			// or infinite, which only the non-finite check above wants.
			if r.AtSec = math.Float64frombits(rng.Uint64()); !math.IsNaN(r.AtSec) && !math.IsInf(r.AtSec, 0) {
				break
			}
		}
		if rng.Intn(3) == 0 {
			r.AtSec = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		for n := rng.Intn(4); n > 0; n-- {
			r.Assignments = append(r.Assignments, Assignment{Dataset: workload.DatasetID(rng.Intn(40)), Node: graph.NodeID(rng.Intn(500))})
		}
		if rng.Intn(2) == 0 {
			r.StageNs = make([]int64, instrument.NumStages)
			for j := range r.StageNs {
				r.StageNs[j] = rng.Int63n(1e9)
			}
		}
		if rng.Intn(4) == 0 {
			r.Term = rng.Int63n(10)
		}
		checkEncode(t, "random", []AdmitResponse{r}, true)
	}
}

// TestAdmitHandlerMatchesReference serves the same POSTs through the old
// handler on one server and the new one on another and requires equal
// statuses, headers and reply bytes, and equal journals: singles, batches
// that span epochs, a term-fenced batch, a fenced single, and an unknown
// query.
func TestAdmitHandlerMatchesReference(t *testing.T) {
	p, _, ref, refDir := newNoSyncServer(t, 64)
	_, _, cur, curDir := newNoSyncServer(t, 64)
	refH, curH := http.HandlerFunc(ref.referenceAdmitHandler), cur.Handler(nil)
	serve := func(h http.Handler, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(body)))
		return w
	}
	same := func(what string, body []byte) {
		t.Helper()
		a, b := serve(refH, body), serve(curH, body)
		if a.Code != b.Code || a.Header().Get("Content-Type") != b.Header().Get("Content-Type") || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("%s: reference %d %q\n%s\nnew %d %q\n%s", what, a.Code, a.Header().Get("Content-Type"), a.Body.Bytes(),
				b.Code, b.Header().Get("Content-Type"), b.Body.Bytes())
		}
	}
	arrivals := Arrivals(len(p.Queries), DriveConfig{Count: 1200, Seed: 3, MeanHoldSec: 0.5})
	for i, n := 0, 1; i < len(arrivals); i, n = i+n, n%150+37 {
		batch := arrivals[i:min(i+n, len(arrivals))]
		body, err := json.Marshal(batch)
		if len(batch) == 1 || n%3 == 0 {
			body, err = json.Marshal(batch[0])
			batch = batch[:1]
			n = 1
		}
		if err != nil {
			t.Fatal(err)
		}
		same("batch", body)
	}
	ref.SetTerm(4)
	cur.SetTerm(4)
	same("fenced batch", []byte(`[{"query":1,"term":4},{"query":2,"term":3,"at_sec":9.5}]`))
	same("fenced single", []byte(`{"query":1,"term":5}`))
	same("current term", []byte(`[{"query":1,"term":4,"at_sec":3},{"query":2,"at_sec":3}]`))
	same("unknown query", []byte(`[{"query":1},{"query":99999}]`))
	for _, s := range []*Server{ref, cur} {
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(refDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(refDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(curDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("journal file %s differs between the reference and the new handler", e.Name())
		}
	}
	if curEntries, _ := os.ReadDir(curDir); len(curEntries) != len(entries) {
		t.Fatalf("journal holds %d files under the new handler, %d under the reference", len(curEntries), len(entries))
	}
}

// replyWriter is an http.ResponseWriter whose body is a reused buffer, so
// a handler's own allocations can be counted.
type replyWriter struct {
	*bytes.Buffer
	h    http.Header
	code int
}

func (w *replyWriter) Header() http.Header  { return w.h }
func (w *replyWriter) WriteHeader(code int) { w.code = code }

// reusedBody is a request body that can be rewound without allocating.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// TestAdmitPostAllocs pins what one 256-offer POST costs through the handler
// on a journaled server: a few objects for the whole POST — no channel or
// slice per offer, no reflection — plus the one each admitted decision
// allocates in the engine (its decision record), far below one per offer.
func TestAdmitPostAllocs(t *testing.T) {
	if raceOn {
		t.Skip("under -race sync.Pool drops a quarter of its Puts, so the count varies; ci.sh pins it without -race")
	}
	p, _, s, _ := newNoSyncServer(t, 256)
	const runs = 50
	arrivals := Arrivals(len(p.Queries), DriveConfig{Count: 256 * (runs + 1), Seed: 5, MeanHoldSec: 0.5})
	bodies := make([][]byte, runs+1)
	for i := range bodies {
		var err error
		if bodies[i], err = json.Marshal(arrivals[256*i : 256*(i+1)]); err != nil {
			t.Fatal(err)
		}
	}
	w := &replyWriter{Buffer: new(bytes.Buffer), h: http.Header{}}
	body := new(reusedBody)
	r := httptest.NewRequest(http.MethodPost, "/admit", body)
	k, admitted := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		body.Reset(bodies[k])
		r.ContentLength = int64(len(bodies[k]))
		k++
		w.code = http.StatusOK
		w.Reset()
		s.admitHandler(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("POST answered %d: %s", w.code, w.Bytes())
		}
		admitted += bytes.Count(w.Bytes(), []byte(`"admitted":true`))
	})
	perPost := float64(admitted) / float64(runs+1)
	t.Logf("a 256-offer POST: %.1f allocations, %.1f admitted decisions", allocs, perPost)
	if allocs > perPost+16 {
		t.Fatalf("a 256-offer POST allocates %.1f objects with %.1f admitted; want at most one per admit plus 16", allocs, perPost)
	}
}

var sinkReqs []AdmitRequest
var sinkBytes []byte

// BenchmarkAdmitDecode decodes the bench's 256-offer body with the codec
// and with the encoding/json path it replaced.
func BenchmarkAdmitDecode(b *testing.B) {
	body := benchBody(b)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		reqs := make([]AdmitRequest, 0, 256)
		for b.Loop() {
			reqs, _, _ = decodeAdmit(body, reqs)
		}
		sinkReqs = reqs
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sinkReqs, _, _ = referenceDecode(bytes.NewReader(body))
		}
	})
}

// BenchmarkAdmitEncode encodes 256 replies like the bench's with the codec
// and with json.Encoder.
func BenchmarkAdmitEncode(b *testing.B) {
	resps := make([]AdmitResponse, 256)
	shapes := encodeShapes()
	for i := range resps {
		r := shapes["rejected"]
		if i%3 == 0 {
			r = shapes["admitted"]
		}
		r.Query, r.AtSec = workload.QueryID(int64(i)), float64(i)*0.0013
		resps[i] = r
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var out []byte
		for b.Loop() {
			out, _ = appendAdmitReply(out[:0], resps, false)
		}
		sinkBytes = out
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_ = referenceEncode(io.Discard, resps, false)
		}
	})
}
