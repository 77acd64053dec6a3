package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	basker "repro"
	"repro/internal/faultinject"
	"repro/internal/matgen"
)

// serveMatrix is the battery's standard small system.
func serveMatrix(seed int64) *basker.Matrix {
	return matgen.Circuit(matgen.CircuitParams{
		N: 120, BTFPct: 50, Blocks: 8, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: seed,
	})
}

func matrixJSON(a *basker.Matrix) *MatrixJSON {
	return &MatrixJSON{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: a.Values}
}

// rhsFor manufactures a b with known solution x and returns both.
func rhsFor(a *basker.Matrix, seed int64) (b, x []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b = make([]float64, a.N)
	a.MulVec(b, x)
	return b, x
}

func wantClose(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// newHTTPServer mounts an already-built Server on a test listener.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func newTestServer(t *testing.T, popts basker.PoolOptions, sopts Options) (*Server, *httptest.Server) {
	t.Helper()
	if popts.Options.Threads == 0 {
		popts.Options.Threads = 2
	}
	if popts.Options.BigBlockMin == 0 {
		popts.Options.BigBlockMin = 64
	}
	popts.Options.ValidateInputs = true
	s := NewServer(basker.NewPool(popts), sopts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON round-trips one request, returning status and raw body.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getJSON(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func decodeInto(t *testing.T, raw []byte, dst any) {
	t.Helper()
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("response %q: %v", raw, err)
	}
}

// errCode extracts the wire error code from a non-2xx body.
func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var eb ErrorBody
	decodeInto(t, raw, &eb)
	if eb.Error.Code == "" {
		t.Fatalf("error response %q carries no code", raw)
	}
	return eb.Error.Code
}

// TestServeSolveGoldenRoundTrip is the wire-protocol golden path: an inline
// CSC solve whose JSON response reproduces the known solution.
func TestServeSolveGoldenRoundTrip(t *testing.T) {
	a := serveMatrix(1)
	b, x := rhsFor(a, 10)
	_, ts := newTestServer(t, basker.PoolOptions{}, Options{})
	status, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Matrix: matrixJSON(a), B: b})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	var resp SolveResponse
	decodeInto(t, raw, &resp)
	wantClose(t, resp.X, x, "x")
	if resp.ElapsedMS < 0 {
		t.Fatalf("elapsed_ms = %v", resp.ElapsedMS)
	}
	if resp.Xs != nil {
		t.Fatalf("single-rhs response carries xs")
	}
}

// TestServeSolveTripletsBatch covers the assembly form and the batched
// right-hand-side shape in one round trip.
func TestServeSolveTripletsBatch(t *testing.T) {
	a := serveMatrix(2)
	// Re-express a as triplets.
	tj := &TripletsJSON{M: a.M, N: a.N}
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			tj.Rows = append(tj.Rows, a.Rowidx[p])
			tj.Cols = append(tj.Cols, j)
			tj.Values = append(tj.Values, a.Values[p])
		}
	}
	b1, x1 := rhsFor(a, 20)
	b2, x2 := rhsFor(a, 21)
	_, ts := newTestServer(t, basker.PoolOptions{}, Options{})
	status, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Triplets: tj, Bs: [][]float64{b1, b2}})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	var resp SolveResponse
	decodeInto(t, raw, &resp)
	if len(resp.Xs) != 2 {
		t.Fatalf("batch returned %d solutions, want 2", len(resp.Xs))
	}
	wantClose(t, resp.Xs[0], x1, "xs[0]")
	wantClose(t, resp.Xs[1], x2, "xs[1]")
}

// TestServeRegisterValuesTraffic is the amortized serving loop over the
// wire: register once (warm), then values-only refresh solves ride the
// cached factorization — the pool must report hits, and the id must be
// stable across re-registration.
func TestServeRegisterValuesTraffic(t *testing.T) {
	a := serveMatrix(3)
	s, ts := newTestServer(t, basker.PoolOptions{}, Options{})

	status, raw := postJSON(t, ts.URL+"/v1/matrices", RegisterRequest{Matrix: matrixJSON(a), Warm: true})
	if status != http.StatusOK {
		t.Fatalf("register: status %d, body %s", status, raw)
	}
	var reg RegisterResponse
	decodeInto(t, raw, &reg)
	if !strings.HasPrefix(reg.ID, "p-") || reg.N != a.N || reg.Nnz != len(a.Values) {
		t.Fatalf("register response %+v", reg)
	}

	// Values-only refresh traffic: same pattern, drifted values.
	vals := make([]float64, len(a.Values))
	for i, v := range a.Values {
		vals[i] = 1.25 * v
	}
	scaled := &basker.Matrix{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: vals}
	b, x := rhsFor(scaled, 30)
	status, raw = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: reg.ID, Values: vals, B: b})
	if status != http.StatusOK {
		t.Fatalf("values solve: status %d, body %s", status, raw)
	}
	var resp SolveResponse
	decodeInto(t, raw, &resp)
	wantClose(t, resp.X, x, "x")

	// Id-only solve uses the registered template values.
	b0, x0 := rhsFor(a, 31)
	status, raw = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: reg.ID, B: b0})
	if status != http.StatusOK {
		t.Fatalf("id solve: status %d, body %s", status, raw)
	}
	decodeInto(t, raw, &resp)
	wantClose(t, resp.X, x0, "x")

	ps := s.pool.Stats()
	if ps.Hits == 0 {
		t.Fatalf("values traffic missed the cache: %+v", ps)
	}

	// Re-registration is idempotent on the id and does not double-count.
	status, raw = postJSON(t, ts.URL+"/v1/matrices", RegisterRequest{Matrix: matrixJSON(scaled)})
	if status != http.StatusOK {
		t.Fatalf("re-register: status %d, body %s", status, raw)
	}
	var reg2 RegisterResponse
	decodeInto(t, raw, &reg2)
	if reg2.ID != reg.ID {
		t.Fatalf("same pattern re-registered under %s, want %s", reg2.ID, reg.ID)
	}
	if got := s.Stats().Patterns; got != 1 {
		t.Fatalf("patterns = %d, want 1 after idempotent re-register", got)
	}
}

// TestServeFactorEndpoint warms the cache over the wire and checks the
// follow-up solve hits it.
func TestServeFactorEndpoint(t *testing.T) {
	a := serveMatrix(4)
	s, ts := newTestServer(t, basker.PoolOptions{}, Options{})
	status, raw := postJSON(t, ts.URL+"/v1/factor", FactorRequest{Matrix: matrixJSON(a)})
	if status != http.StatusOK {
		t.Fatalf("factor: status %d, body %s", status, raw)
	}
	var fr FactorResponse
	decodeInto(t, raw, &fr)
	if fr.N != a.N || fr.NnzLU < a.N {
		t.Fatalf("factor response %+v (want n = %d, nnz_lu >= n)", fr, a.N)
	}
	b, x := rhsFor(a, 40)
	status, raw = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Matrix: matrixJSON(a), B: b})
	if status != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", status, raw)
	}
	var resp SolveResponse
	decodeInto(t, raw, &resp)
	wantClose(t, resp.X, x, "x")
	if s.pool.Stats().Hits == 0 {
		t.Fatalf("solve after factor missed the cache: %+v", s.pool.Stats())
	}
}

// TestServeStatsHealthDebugVars covers the observability endpoints: stats
// reports the pool (lock meter included) and the server coherently, healthz
// answers, and /debug/vars serves valid JSON.
func TestServeStatsHealthDebugVars(t *testing.T) {
	a := serveMatrix(5)
	s, ts := newTestServer(t, basker.PoolOptions{}, Options{MaxInFlight: 16})
	b, _ := rhsFor(a, 50)
	if status, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Matrix: matrixJSON(a), B: b}); status != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", status, raw)
	}

	var raw json.RawMessage
	if status := getJSON(t, ts.URL+"/v1/stats", &raw); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	var wire struct {
		Pool map[string]json.RawMessage `json:"pool"`
	}
	decodeInto(t, raw, &wire)
	for _, k := range []string{"LockWaitSeconds", "LockHoldSeconds"} {
		var v float64
		if err := json.Unmarshal(wire.Pool[k], &v); err != nil || v < 0 {
			t.Fatalf("stats pool.%s = %s (%v), want a non-negative number", k, wire.Pool[k], err)
		}
	}
	var st StatsResponse
	decodeInto(t, raw, &st)
	if st.Pool.Misses == 0 || st.Pool.Misses != s.pool.Stats().Misses {
		t.Fatalf("pool stats %+v do not match the pool's own", st.Pool)
	}
	if st.Pool.LockHoldSeconds <= 0 {
		t.Fatalf("pool lock meter read no hold time after traffic: %+v", st.Pool)
	}
	if st.Server.Requests == 0 || st.Server.InFlight != 0 {
		t.Fatalf("server stats %+v", st.Server)
	}

	var health map[string]string
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", status, health)
	}

	var vars map[string]json.RawMessage
	if status := getJSON(t, ts.URL+"/debug/vars", &vars); status != http.StatusOK {
		t.Fatalf("debug/vars status %d", status)
	}
	if _, ok := vars["cmdline"]; !ok {
		t.Fatalf("/debug/vars JSON lacks the standard cmdline var: %v", vars)
	}
}

// TestServeCachedPatternsBound registers more patterns than
// MaxCachedPatterns allows: the one pool keeps at most that many analyses
// across all patterns, and every pattern still solves.
func TestServeCachedPatternsBound(t *testing.T) {
	const limit = 2
	s, ts := newTestServer(t, basker.PoolOptions{MaxCachedPatterns: limit}, Options{})
	for seed := int64(60); seed < 66; seed++ {
		a := serveMatrix(seed)
		b, x := rhsFor(a, seed)
		status, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Matrix: matrixJSON(a), B: b})
		if status != http.StatusOK {
			t.Fatalf("pattern %d: status %d, body %s", seed, status, raw)
		}
		var resp SolveResponse
		decodeInto(t, raw, &resp)
		wantClose(t, resp.X, x, "x")
		if got := s.pool.Stats().CachedSymbolics; got > limit {
			t.Fatalf("after pattern %d the pool caches %d analyses, want at most %d", seed, got, limit)
		}
	}
	if st := s.pool.Stats(); st.CachedSymbolics != limit || st.Misses != 6 {
		t.Fatalf("pool stats %+v, want %d cached analyses after 6 distinct patterns", st, limit)
	}
}

// TestErrorStatusTable locks errorStatus over the whole taxonomy, including
// errors a JSON client cannot express on the wire (NaN input values are not
// representable in JSON, but the mapping must still hold for them) and the
// wrap orderings where one class also matches another.
func TestErrorStatusTable(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"bad input", fmt.Errorf("x: %w", basker.ErrBadInput), http.StatusBadRequest, "bad_input"},
		{"not finite beats bad input", fmt.Errorf("x: %w", errors.Join(basker.ErrBadInput, basker.ErrNotFinite)),
			http.StatusBadRequest, "not_finite"},
		{"dimension mismatch", fmt.Errorf("x: %w", basker.ErrDimensionMismatch), http.StatusBadRequest, "dimension_mismatch"},
		{"singular", fmt.Errorf("x: %w", basker.ErrSingular), http.StatusUnprocessableEntity, "singular"},
		{"canceled", fmt.Errorf("x: %w", basker.ErrCanceled), StatusClientClosedRequest, "canceled"},
		{"deadline beats canceled", fmt.Errorf("x: %w", errors.Join(basker.ErrCanceled, basker.ErrDeadlineExceeded)),
			http.StatusGatewayTimeout, "deadline_exceeded"},
		{"stalled", fmt.Errorf("x: %w", basker.ErrStalled), http.StatusServiceUnavailable, "stalled"},
		{"internal panic", fmt.Errorf("x: %w", basker.ErrInternalPanic), http.StatusInternalServerError, "internal_panic"},
		{"unknown", errors.New("mystery"), http.StatusInternalServerError, "internal"},
		{"wire error passthrough", badRequest("bad_input", "nope"), http.StatusBadRequest, "bad_input"},
	}
	for _, tc := range cases {
		status, code := errorStatus(tc.err)
		if status != tc.wantStatus || code != tc.wantCode {
			t.Errorf("%s: errorStatus = (%d, %q), want (%d, %q)", tc.name, status, code, tc.wantStatus, tc.wantCode)
		}
	}
}

// TestServeErrorMappingTable locks the taxonomy→HTTP contract endpoint by
// endpoint: every typed solver error, every wire defect, admission
// rejection and cancellation land on their documented status and code.
// malformedCSC lists inline matrices whose lengths agree but whose column
// pointers or row indices break the CSC invariants.
func malformedCSC() []struct {
	name string
	mj   *MatrixJSON
} {
	return []struct {
		name string
		mj   *MatrixJSON
	}{
		{"interior pointer past nnz", &MatrixJSON{M: 2, N: 2, Colptr: []int{0, 5, 2}, Rowidx: []int{0, 1}, Values: []float64{1, 2}}},
		{"row out of range", &MatrixJSON{M: 2, N: 2, Colptr: []int{0, 1, 2}, Rowidx: []int{0, 2}, Values: []float64{1, 2}}},
		{"unsorted rows", &MatrixJSON{M: 2, N: 2, Colptr: []int{0, 2, 3}, Rowidx: []int{1, 0, 1}, Values: []float64{1, 2, 3}}},
	}
}

// TestServeMalformedCSCWithoutValidation pins that the structural check
// does not depend on the solver's ValidateInputs screen.
func TestServeMalformedCSCWithoutValidation(t *testing.T) {
	s := NewServer(basker.NewPool(basker.PoolOptions{Options: basker.Options{Threads: 1}}), Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, bad := range malformedCSC() {
		for path, body := range map[string]any{
			"/v1/solve":    SolveRequest{Matrix: bad.mj, B: make([]float64, bad.mj.N)},
			"/v1/matrices": RegisterRequest{Matrix: bad.mj},
		} {
			status, raw := postJSON(t, ts.URL+path, body)
			if status != http.StatusBadRequest || errCode(t, raw) != "bad_input" {
				t.Errorf("%s %s: status %d, body %s, want 400 bad_input", path, bad.name, status, raw)
			}
		}
	}
}

func TestServeErrorMappingTable(t *testing.T) {
	good := serveMatrix(6)
	big := matgen.Circuit(matgen.CircuitParams{
		N: 2600, BTFPct: 30, Blocks: 12, Core: matgen.CoreGrid3D, ExtraDensity: 0.8, Seed: 7,
	})
	goodB, _ := rhsFor(good, 60)

	// A structurally singular system: an exactly empty column.
	singular := func() *MatrixJSON {
		a := serveMatrix(7)
		mj := matrixJSON(a)
		cp := make([]int, len(a.Colptr))
		nnz := 0
		ri := []int{}
		vv := []float64{}
		for j := 0; j < a.N; j++ {
			cp[j] = nnz
			if j == 3 {
				continue // drop column 3 entirely
			}
			for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
				ri = append(ri, a.Rowidx[p])
				vv = append(vv, a.Values[p])
				nnz++
			}
		}
		cp[a.N] = nnz
		mj.Colptr, mj.Rowidx, mj.Values = cp, ri, vv
		return mj
	}()

	// Broken CSC invariants (non-monotone colptr), refused by the wire-level
	// structural check before the solver sees them.
	brokenCSC := func() *MatrixJSON {
		a := serveMatrix(8)
		mj := matrixJSON(a)
		cp := append([]int(nil), a.Colptr...)
		cp[1], cp[2] = cp[2], cp[1] // non-monotone
		mj.Colptr = cp
		return mj
	}()

	inject := faultinject.New()
	s, ts := newTestServer(t, basker.PoolOptions{
		Options: basker.Options{Threads: 4, StallTimeout: 60 * time.Millisecond}.InjectFaults(inject),
	}, Options{MaxInFlight: 4})

	zeros := func(n int) []float64 { return make([]float64, n) }

	type errorCase struct {
		name       string
		path       string
		body       any
		rawBody    string // overrides body when non-empty
		arm        func()
		wantStatus int
		wantCode   string
	}
	cases := []errorCase{
		{
			name: "invalid JSON", path: "/v1/solve", rawBody: "{not json",
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "no matrix selector", path: "/v1/solve",
			body:       SolveRequest{B: zeros(4)},
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "two matrix selectors", path: "/v1/solve",
			body:       SolveRequest{Matrix: matrixJSON(good), ID: "p-x", B: zeros(good.N)},
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "both b and bs", path: "/v1/solve",
			body:       SolveRequest{Matrix: matrixJSON(good), B: zeros(good.N), Bs: [][]float64{zeros(good.N)}},
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "neither b nor bs", path: "/v1/solve",
			body:       SolveRequest{Matrix: matrixJSON(good)},
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "wire-shape colptr mismatch", path: "/v1/solve",
			body: SolveRequest{Matrix: &MatrixJSON{M: 4, N: 4, Colptr: []int{0, 1}, Rowidx: []int{0}, Values: []float64{1}},
				B: zeros(4)},
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "solver ErrBadInput broken CSC", path: "/v1/solve",
			body:       SolveRequest{Matrix: brokenCSC, B: zeros(brokenCSC.N)},
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "ErrDimensionMismatch wrong b length", path: "/v1/solve",
			body:       SolveRequest{Matrix: matrixJSON(good), B: zeros(good.N - 1)},
			wantStatus: http.StatusBadRequest, wantCode: "dimension_mismatch",
		},
		{
			name: "values length mismatch on registered id", path: "/v1/solve",
			body:       nil, // built below after registration
			wantStatus: http.StatusBadRequest, wantCode: "dimension_mismatch",
		},
		{
			name: "ErrSingular empty column", path: "/v1/solve",
			body:       SolveRequest{Matrix: singular, B: zeros(singular.N)},
			wantStatus: http.StatusUnprocessableEntity, wantCode: "singular",
		},
		{
			name: "unknown pattern id", path: "/v1/solve",
			body:       SolveRequest{ID: "p-deadbeefdeadbeef", B: zeros(4)},
			wantStatus: http.StatusNotFound, wantCode: "unknown_pattern",
		},
		{
			name: "bad mode", path: "/v1/solve",
			body:       SolveRequest{Matrix: matrixJSON(good), B: zeros(good.N), Mode: "sideways"},
			wantStatus: http.StatusBadRequest, wantCode: "bad_input",
		},
		{
			name: "ErrDeadlineExceeded mid-factor", path: "/v1/solve",
			body:       SolveRequest{Matrix: matrixJSON(big), B: zeros(big.N), TimeoutMillis: 1},
			wantStatus: http.StatusGatewayTimeout, wantCode: "deadline_exceeded",
		},
		{
			name: "ErrStalled wedged sweep", path: "/v1/solve",
			body: SolveRequest{Matrix: matrixJSON(serveMatrix(11)), B: zeros(serveMatrix(11).N)},
			arm: func() {
				inject.Arm(faultinject.PointStall, faultinject.Rule{
					Sweep: faultinject.SweepFactor, SweepSet: true, Block: -1, Worker: -1,
					Times: 1, Stall: 900 * time.Millisecond,
				})
			},
			wantStatus: http.StatusServiceUnavailable, wantCode: "stalled",
		},
		{
			name: "ErrInternalPanic worker panic", path: "/v1/solve",
			body: SolveRequest{Matrix: matrixJSON(serveMatrix(12)), B: zeros(serveMatrix(12).N)},
			arm: func() {
				inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
					Sweep: faultinject.SweepFactor, SweepSet: true, Block: -1, Worker: -1, Times: 1,
				})
			},
			wantStatus: http.StatusInternalServerError, wantCode: "internal_panic",
		},
	}

	// Structural CSC defects are the client's on both routes: 400, never a
	// recovered panic on solve or a 200 registration.
	for _, bad := range malformedCSC() {
		cases = append(cases,
			errorCase{
				name: "solve " + bad.name, path: "/v1/solve",
				body:       SolveRequest{Matrix: bad.mj, B: zeros(bad.mj.N)},
				wantStatus: http.StatusBadRequest, wantCode: "bad_input",
			},
			errorCase{
				name: "register " + bad.name, path: "/v1/matrices",
				body:       RegisterRequest{Matrix: bad.mj},
				wantStatus: http.StatusBadRequest, wantCode: "bad_input",
			})
	}

	// Register a pattern for the values-length-mismatch row.
	status, raw := postJSON(t, ts.URL+"/v1/matrices", RegisterRequest{Matrix: matrixJSON(good)})
	if status != http.StatusOK {
		t.Fatalf("register: status %d, body %s", status, raw)
	}
	var reg RegisterResponse
	decodeInto(t, raw, &reg)
	for i := range cases {
		if cases[i].name == "values length mismatch on registered id" {
			cases[i].body = SolveRequest{ID: reg.ID, Values: zeros(3), B: zeros(good.N)}
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.arm != nil {
				tc.arm()
				defer inject.DisarmAll()
			}
			var status int
			var raw []byte
			if tc.rawBody != "" {
				resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.rawBody))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				status = resp.StatusCode
				raw, _ = io.ReadAll(resp.Body)
			} else {
				status, raw = postJSON(t, ts.URL+tc.path, tc.body)
			}
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", status, tc.wantStatus, raw)
			}
			if code := errCode(t, raw); code != tc.wantCode {
				t.Fatalf("code %q, want %q (body %s)", code, tc.wantCode, raw)
			}
		})
	}

	// Admission rejection: occupy every in-flight slot, then knock.
	for i := 0; i < cap(s.inflight); i++ {
		s.inflight <- struct{}{}
	}
	status, raw = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Matrix: matrixJSON(good), B: zeros(good.N)})
	if status != http.StatusServiceUnavailable || errCode(t, raw) != "overloaded" {
		t.Fatalf("full server: status %d, body %s, want 503 overloaded", status, raw)
	}
	for i := 0; i < cap(s.inflight); i++ {
		<-s.inflight
	}
	if got := s.Stats().Shed; got == 0 {
		t.Fatalf("shed counter did not move")
	}

	// Canceled client: a request whose context is already dead maps to 499.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	payload, _ := json.Marshal(SolveRequest{Matrix: matrixJSON(good), B: goodB})
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(payload)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled request: status %d, body %s, want 499", rec.Code, rec.Body.Bytes())
	}
	if code := errCode(t, rec.Body.Bytes()); code != "canceled" {
		t.Fatalf("canceled request code %q", code)
	}

	// Body too large.
	_, tiny := newTestServer(t, basker.PoolOptions{}, Options{MaxBodyBytes: 16})
	resp, err := http.Post(tiny.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"b": [%s1]}`, strings.Repeat("1,", 64))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ = io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, raw) != "body_too_large" {
		t.Fatalf("oversized body: status %d, body %s, want 413 body_too_large", resp.StatusCode, raw)
	}
}
