package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"testing"

	basker "repro"
	"repro/internal/matgen"
)

// endpoint pairs a request endpoint's key set with the public struct that
// documents its body: viaJSON is the decoder the scanner replaced, public
// the scanner's result as that struct.
type endpoint struct {
	name    string
	keys    uint
	viaJSON func(body []byte) (any, error)
	public  func(r *request) any
}

// viaJSON decodes body into a T the way Server.decode did.
func viaJSON[T any](body []byte) (any, error) {
	var v T
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	return v, err
}

var endpoints = []endpoint{
	{"solve", solveKeys, viaJSON[SolveRequest], func(r *request) any {
		return SolveRequest{Matrix: r.matrix, Triplets: r.triplets, ID: r.id, Values: r.values,
			B: r.b, Bs: r.bs, Mode: r.mode, TimeoutMillis: r.timeoutMillis}
	}},
	{"factor", factorKeys, viaJSON[FactorRequest], func(r *request) any {
		return FactorRequest{Matrix: r.matrix, Triplets: r.triplets, ID: r.id, Values: r.values,
			Mode: r.mode, TimeoutMillis: r.timeoutMillis}
	}},
	{"register", registerKeys, viaJSON[RegisterRequest], func(r *request) any {
		return RegisterRequest{Matrix: r.matrix, Triplets: r.triplets, Warm: r.warm, TimeoutMillis: r.timeoutMillis}
	}},
}

// decodeServer is a server with one registered pattern and a small body
// limit, never started: the decode tests call its request reader directly.
func decodeServer(a *basker.Matrix) (*Server, string) {
	s := NewServer(basker.NewPool(basker.PoolOptions{}), Options{MaxBodyBytes: 1 << 16})
	id := patternID(a)
	s.registry.Store(id, a)
	return s, id
}

// scratchBytes is the storage a scratch holds: everything readRequest
// allocates that grows with its input.
func scratchBytes(sc *scratch) int {
	n := cap(sc.body) + cap(sc.resp) + 24*cap(sc.bs)
	for _, ints := range [][]int{sc.matrix.idx[0], sc.matrix.idx[1], sc.triplets.idx[0], sc.triplets.idx[1], sc.rowEnds} {
		n += 8 * cap(ints)
	}
	for _, floats := range [][]float64{sc.matrix.vals, sc.triplets.vals, sc.values, sc.b, sc.slab} {
		n += 8 * cap(floats)
	}
	return n
}

// checkDecode reads body as ep's request, declared length or chunked, and
// holds the outcome to the contract: what is accepted, encoding/json
// accepted with the same value; what is refused is a 400 bad_input, a 400
// dimension_mismatch or a 413; and the storage taken stays within a
// constant factor of the body. It reports whether body was accepted.
func checkDecode(t *testing.T, s *Server, ep endpoint, body []byte, chunked bool) bool {
	t.Helper()
	r := &http.Request{ContentLength: int64(len(body))}
	if chunked {
		r.ContentLength = -1
	}
	r.Body = http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), s.opts.MaxBodyBytes)
	sc := new(scratch)
	got, err := s.readRequest(r, ep.keys, sc)
	if size := scratchBytes(sc); size > 32*len(body)+4096 {
		t.Fatalf("%s: %d bytes of scratch for a %d-byte body", ep.name, size, len(body))
	}
	if err != nil {
		status, code := errorStatus(err)
		ok := status == http.StatusBadRequest && (code == "bad_input" || code == "dimension_mismatch") ||
			status == http.StatusRequestEntityTooLarge
		if !ok {
			t.Fatalf("%s: refused as %d %s (%v)", ep.name, status, code, err)
		}
		return false
	}
	want, jerr := ep.viaJSON(body)
	if jerr != nil {
		t.Fatalf("%s: accepted, but encoding/json refuses: %v", ep.name, jerr)
	}
	if pub := ep.public(got); !reflect.DeepEqual(pub, want) {
		t.Fatalf("%s: decoded\n%+v\nencoding/json decodes\n%+v", ep.name, pub, want)
	}
	return true
}

// wireBodies are the bodies of the golden round trips and of the
// error-mapping table, with the shapes the table leaves out.
func wireBodies(t testing.TB, a *basker.Matrix, id string) [][]byte {
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	b, _ := rhsFor(a, 1)
	tj := &TripletsJSON{M: a.M, N: a.N}
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			tj.Rows, tj.Cols, tj.Values = append(tj.Rows, a.Rowidx[p]), append(tj.Cols, j), append(tj.Values, a.Values[p])
		}
	}
	zeros := make([]float64, a.N)
	bodies := [][]byte{
		marshal(SolveRequest{Matrix: matrixJSON(a), B: b}),
		marshal(SolveRequest{Triplets: tj, Bs: [][]float64{b, zeros}}),
		marshal(RegisterRequest{Matrix: matrixJSON(a), Warm: true}),
		marshal(RegisterRequest{Triplets: tj, TimeoutMillis: 250}),
		marshal(SolveRequest{ID: id, Values: a.Values, B: b}),
		marshal(SolveRequest{ID: id, Bs: [][]float64{b, b, zeros}, Mode: "refresh"}),
		marshal(FactorRequest{ID: id, Values: a.Values, Mode: "fresh", TimeoutMillis: 1}),
		marshal(FactorRequest{Matrix: matrixJSON(a)}),
		// The error-mapping table's bodies.
		[]byte("{not json"),
		marshal(SolveRequest{B: zeros[:4]}),
		marshal(SolveRequest{Matrix: matrixJSON(a), ID: "p-x", B: zeros}),
		marshal(SolveRequest{Matrix: matrixJSON(a), B: zeros, Bs: [][]float64{zeros}}),
		marshal(SolveRequest{Matrix: matrixJSON(a)}),
		marshal(SolveRequest{Matrix: &MatrixJSON{M: 4, N: 4, Colptr: []int{0, 1}, Rowidx: []int{0}, Values: []float64{1}}, B: zeros[:4]}),
		marshal(SolveRequest{Matrix: matrixJSON(a), B: zeros[:a.N-1]}),
		marshal(SolveRequest{ID: id, Values: zeros[:3], B: zeros}),
		marshal(SolveRequest{ID: id, Values: a.Values, B: append(zeros, 1)}),
		marshal(SolveRequest{ID: id, Values: append(a.Values[:len(a.Values):len(a.Values)], 1), B: zeros}),
		marshal(SolveRequest{ID: "p-deadbeefdeadbeef", B: zeros[:4]}),
		marshal(SolveRequest{Matrix: matrixJSON(a), B: zeros, Mode: "sideways"}),
		[]byte(fmt.Sprintf(`{"b": [%s1]}`, bytes.Repeat([]byte("1,"), 64))),
	}
	for _, s := range []string{
		`{}`, ` { } `, `null`, `[]`, `{"b":null}`, `{"b":[]}`, `{"bs":[]}`, `{"bs":[[]]}`, `{"bs":[[],[1]]}`, `{"bs":[null]}`,
		`{"b":[1,null]}`, `{"matrix":null,"triplets":null,"id":null,"values":null,"mode":null,"timeout_ms":null,"warm":null}`,
		`{"matrix":{}}`, `{"matrix":{"m":null,"colptr":null}}`, `{"triplets":{"m":2,"n":2,"rows":[0,1],"cols":[0,1],"values":[1,2]},"b":[1,1]}`,
		`{"B":[1],"ID":"x","Mode":"fresh","TIMEOUT_MS":5,"Warm":true}`, `{"b":[1],"B":[2]}`, `{"b":[1],"b":[2]}`,
		`{"matrix":{"m":1},"matrix":{"n":2}}`, `{"matrix":{"m":1,"M":2}}`, `{"b":[1.5],"id":"p-😀\ud800x\n"}`,
		"{\"id\":\"caf\xc3\xa9\xff\",\"mode\":\"\xe2\x82\"}", "{\"valueſ\":[1]}", "{\"K\":1,\"b\":[1]}",
		`{"id":"a\qb"}`, `{"id":"a` + "\x01" + `b"}`, `{"id":"\u12"}`, `{"id":5}`, `{"warm":1}`, `{"warm":true}`, `{"warm":false,"timeout_ms":-3}`,
		`{"timeout_ms":1.0}`, `{"timeout_ms":1e3}`, `{"timeout_ms":9223372036854775808}`, `{"timeout_ms":"5"}`,
		`{"b":[1e999]}`, `{"b":[-1e999]}`, `{"b":[1e-999,5e-324,-0,0.1e1,1E+2]}`, `{"b":[01]}`, `{"b":[1.]}`, `{"b":[.5]}`, `{"b":[+1]}`, `{"b":[1 2]}`,
		`{"b":[1,]}`, `{"b":[,1]}`, `{"b":[1],}`, `{,"b":[1]}`, `{"b" [1]}`, `{"b":[1]`, `{"b":[1]}x`, `{"b":[1]} {}`, "{\"b\":[1]}\x00", "{\"b\":[1]} \n\t\r",
		`{"b":[[1]]}`, `{"bs":[1]}`, `{"bs":[[1],2]}`, `{"matrix":[1]}`, `{"matrix":{"m":1.5}}`, `{"matrix":{"colptr":[1.0]}}`, `{"matrix":{"rowidx":[1e2]}}`,
		`{"matrix":{"colptr":[9223372036854775808]}}`, `{"matrix":{"colptr":[-9223372036854775808,0]}}`,
		`{"extra":{"a":[1,"two",{"three":null,"four":[true,false]}],"e":"\"\\\/\b\f\n\r\té"},"b":[1]}`, `{"extra":1e999,"b":[1]}`,
		`{"extra":[1,],"b":[1]}`, `{"extra":{"a":1,},"b":[1]}`, `{"extra":tru,"b":[1]}`, `{"extra":nul}`, `{"extra":"\'"}`, `{"extra":-}`,
		`{"x":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]],"b":[1]}`,
		`{"matrix":{"m":2,"n":2,"colptr":[0,1,2],"rowidx":[0,1],"values":[1,2],"b":[7]},"b":[1,1],"warm":[1]}`,
		"\xef\xbb\xbf{}", `"b"`, `1`, `{"b":[1]}}`, `{"id":"` + id + `","values":[1,2,3],"b":[1]}`, `{"values":[1,2,3],"id":"` + id + `"}`,
		`{"id":"` + id + `","bs":[[],[` + string(bytes.Repeat([]byte("1,"), a.N)) + `1]]}`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// FuzzDecodeRequest feeds arbitrary bytes to the request reader of every
// endpoint: no panic, and checkDecode's contract — soundness against
// encoding/json, refusals mapped to 400 or 413, storage bounded by the body.
func FuzzDecodeRequest(f *testing.F) {
	// The wire shapes on a 4×4 system: small seeds mutate fast.
	a := &basker.Matrix{M: 4, N: 4, Colptr: []int{0, 2, 4, 6, 8}, Rowidx: []int{0, 1, 1, 2, 2, 3, 0, 3},
		Values: []float64{4, -1, 4.5, -1.25e-3, 4, -1e21, 0.1, 4}}
	s, id := decodeServer(a)
	for i, body := range wireBodies(f, a, id) {
		f.Add(body, i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, body []byte, chunked bool) {
		for _, ep := range endpoints {
			checkDecode(t, s, ep, body, chunked)
		}
	})
}

// reorder re-emits a JSON object with its members in descending name order
// and one member no schema knows in front, recursively for matrix and
// triplets.
func reorder(t *testing.T, raw []byte) []byte {
	var members map[string]json.RawMessage
	if err := json.Unmarshal(raw, &members); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	slices.Sort(names)
	slices.Reverse(names)
	out := []byte(`{"note":{"why":["unknown",1.5e3,{"deep":null}],"ok":true}`)
	for _, name := range names {
		v := members[name]
		if name == "matrix" || name == "triplets" {
			v = reorder(t, v)
		}
		out = fmt.Appendf(out, ",%q:%s", name, v)
	}
	return append(out, '}')
}

// TestDecodeRequestAcceptsMarshalled is the completeness half of the decode
// contract: whatever a client gets from json.Marshal of a request struct —
// compact or indented, members in any order, with members the server does
// not know, with null or empty arrays — is accepted, and decodes to what
// encoding/json decodes it to.
func TestDecodeRequestAcceptsMarshalled(t *testing.T) {
	a := serveMatrix(2)
	s, id := decodeServer(a)
	b, _ := rhsFor(a, 3)
	tj := &TripletsJSON{M: 3, N: 3, Rows: []int{0, 1, 2, 0}, Cols: []int{0, 1, 2, 0}, Values: []float64{1, 2, 3, 0.5}}
	requests := []struct {
		ep  endpoint
		req any
	}{
		{endpoints[0], SolveRequest{Matrix: matrixJSON(a), B: b, Mode: "fresh", TimeoutMillis: 1500}},
		{endpoints[0], SolveRequest{ID: id, Values: a.Values, Bs: [][]float64{b, b}}},
		{endpoints[0], SolveRequest{Triplets: tj, B: []float64{1, -2.5e-7, 3e21}}},
		{endpoints[1], FactorRequest{Triplets: tj, Mode: "refresh"}},
		{endpoints[1], FactorRequest{ID: id, Values: a.Values, TimeoutMillis: 20}},
		{endpoints[2], RegisterRequest{Matrix: matrixJSON(a), Warm: true, TimeoutMillis: 7}},
		{endpoints[2], RegisterRequest{Triplets: tj}},
	}
	for i, rq := range requests {
		compact, err := json.Marshal(rq.req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(rq.req, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for form, body := range map[string][]byte{"compact": compact, "indented": indented, "reordered": reorder(t, compact)} {
			for _, chunked := range []bool{false, true} {
				if !checkDecode(t, s, rq.ep, body, chunked) {
					t.Errorf("request %d (%s), %s: refused", i, rq.ep.name, form)
				}
			}
		}
	}
	for _, body := range []string{
		`{"id":"` + id + `","b":null,"bs":[[1,2],[3,4]]}`,
		`{"id":"` + id + `","values":null,"b":[],"bs":[]}`,
		`{"matrix":{"m":1,"n":1,"colptr":[],"rowidx":[ ],"values":[]},"triplets":null,"bs":[[],[]],"mode":"","timeout_ms":0}`,
		`{"triplets":{"m":1,"n":1,"rows":null,"cols":[],"values":[1.0]},"warm":false,"b":[1]}`,
		"\n{ \"Matrix\" : null , \"B\" : [ 1 , 2.5 ,\t-3e0 ] , \"unknown\" : [ ] }\r\n",
	} {
		for _, ep := range endpoints {
			if !checkDecode(t, s, ep, []byte(body), false) {
				t.Errorf("%s %s: refused", ep.name, body)
			}
		}
	}
}

// TestDecodeRequestHoldsRegisteredLengths: once the id is known, an
// overlong values, b or row of bs is a dimension_mismatch before it is
// stored; ahead of the id, or shorter, it is left to the handler.
func TestDecodeRequestHoldsRegisteredLengths(t *testing.T) {
	a := serveMatrix(3)
	s, id := decodeServer(a)
	nums := func(n int) string {
		return "[" + string(bytes.TrimSuffix(bytes.Repeat([]byte("1,"), n), []byte(","))) + "]"
	}
	nnz := len(a.Values)
	for _, tc := range []struct {
		body     string
		wantCode string // "" for accepted
	}{
		{`{"id":"` + id + `","values":` + nums(nnz) + `,"b":` + nums(a.N) + `}`, ""},
		{`{"id":"` + id + `","values":` + nums(nnz+1) + `}`, "dimension_mismatch"},
		{`{"id":"` + id + `","b":` + nums(a.N+1) + `}`, "dimension_mismatch"},
		{`{"id":"` + id + `","bs":[` + nums(a.N) + `,` + nums(a.N+1) + `]}`, "dimension_mismatch"},
		{`{"id":"` + id + `","values":` + nums(nnz-1) + `,"b":[]}`, ""},
		{`{"values":` + nums(nnz+1) + `,"id":"` + id + `"}`, ""},
		{`{"id":"p-unregistered","values":` + nums(nnz+1) + `}`, ""},
	} {
		_, err := s.decodeRequest([]byte(tc.body), solveKeys, new(scratch))
		code := ""
		if err != nil {
			_, code = errorStatus(err)
		}
		if code != tc.wantCode {
			t.Errorf("%.60s…: code %q (%v), want %q", tc.body, code, err, tc.wantCode)
		}
	}
}

// TestEncodeSolveResponseMatchesJSON holds the response appender to the
// encoder it replaced, byte for byte.
func TestEncodeSolveResponseMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	random := make([]float64, 2000)
	for i := range random {
		switch i % 3 {
		case 0:
			random[i] = rng.NormFloat64()
		case 1:
			random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			for random[i] = math.NaN(); math.IsNaN(random[i]) || math.IsInf(random[i], 0); {
				random[i] = math.Float64frombits(rng.Uint64())
			}
		}
	}
	var edges []float64
	for _, v := range []float64{0, 1e-6, 1e21, 1e-7, 1e20, 1, 100, 0.5, 123456789, 1e-5, 9.999999e-7, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-9, 1.5e-10, 1e-100, 1e100, 1e22} {
		edges = append(edges, v, -v, math.Nextafter(v, 0), math.Nextafter(v, 1e300))
	}
	edges = append(edges, math.Copysign(0, -1))
	for i, resp := range []SolveResponse{
		{X: random, ElapsedMS: 12.345678},
		{X: edges, ElapsedMS: 1e-7},
		{Xs: [][]float64{random[:700], edges, random[700:]}, ElapsedMS: 0},
		{Xs: [][]float64{{1}, {}, nil, {2, 3}}, ElapsedMS: 3e21},
		{X: []float64{1}, Xs: [][]float64{{2}}, ElapsedMS: 0.25},
		{X: []float64{}, Xs: [][]float64{}, ElapsedMS: 17},
		{ElapsedMS: 0.000123},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := appendSolveResponse([]byte("kept:"), resp.X, resp.Xs, resp.ElapsedMS)
		if !bytes.Equal(got, append([]byte("kept:"), want.Bytes()...)) {
			at := 0
			for at < len(got)-5 && at < want.Len() && got[5+at] == want.Bytes()[at] {
				at++
			}
			t.Errorf("response %d differs at byte %d: …%.40s, want …%.40s", i, at, got[5+at:], want.Bytes()[at:])
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and counts the
// body, so a test measuring the handler does not measure a recorder.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(status int) {
	w.status = status
}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// refreshBody registers a of the given size on a fresh server, warm, and
// returns the server with an id + values + b request body for it.
func refreshBody(t testing.TB, n int) (*Server, []byte) {
	a := matgen.Circuit(matgen.CircuitParams{
		N: n, BTFPct: 50, Blocks: n / 50, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 5,
	})
	s := NewServer(basker.NewPool(basker.PoolOptions{Options: basker.Options{Threads: 1}}), Options{})
	reg, err := json.Marshal(RegisterRequest{Matrix: matrixJSON(a), Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/matrices", bytes.NewReader(reg)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d, body %s", rec.Code, rec.Body)
	}
	b, _ := rhsFor(a, 6)
	body, err := json.Marshal(SolveRequest{ID: patternID(a), Values: scaledValues(a, 1.25), B: b})
	if err != nil {
		t.Fatal(err)
	}
	return s, body
}

// TestServeRefreshSteadyStateAllocs pins what this request path is for: a
// warmed id + values + b request allocates nothing that grows with its body
// — the body, the decoded arrays and the response all come from the
// recycled scratch. With encoding/json the same request allocated about six
// times its body.
func TestServeRefreshSteadyStateAllocs(t *testing.T) {
	s, body := refreshBody(t, 3000)
	w := &discardWriter{header: http.Header{}}
	serveOne := func() {
		clear(w.header)
		w.status, w.n = 0, 0
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)))
		if w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("status %d, %d response bytes", w.status, w.n)
		}
	}
	// One P: sync.Pool keeps a put item in the putting P's private slot,
	// which no other P can steal, so a request that migrates between Ps
	// would allocate a fresh scratch and measure the scheduler instead.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		serveOne() // sizes the scratch, builds the refresh plan
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serveOne()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per request, body %d bytes, response %d bytes", perRequest, len(body), w.n)
	if raceEnabled {
		return // sync.Pool drops a quarter of what is put back
	}
	if perRequest >= uint64(len(body))/10 {
		t.Errorf("%d bytes allocated per request: not under a tenth of the %d-byte body", perRequest, len(body))
	}
}

// BenchmarkServeDecode measures the request scanner on a refresh body
// (id + values + b) for a pattern of n = 10 000, against the decoder it
// replaced.
func BenchmarkServeDecode(b *testing.B) {
	s, body := refreshBody(b, 10_000)
	b.Run("scanner", func(b *testing.B) {
		sc := new(scratch)
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := s.decodeRequest(body, solveKeys, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := endpoints[0].viaJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
