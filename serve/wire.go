// Package serve is the HTTP/JSON front end of the solver-as-a-service
// layer: assemble→factor→solve and refactor→solve traffic over a
// one basker.Pool, with the library's typed error taxonomy mapped onto
// HTTP semantics. Everything is stdlib; the transport is net/http.
//
// The request bodies of /v1/solve, /v1/factor and /v1/matrices and the
// /v1/solve response do not go through encoding/json: a body is read whole
// into a buffer sized from Content-Length and walked once by a scanner that
// knows the request schema (scan.go), whose number routine validates the
// grammar and accumulates mantissa and exponent in the same pass (float.go);
// the response is appended by appendSolveResponse. The JSON on the wire is
// what it was: SolveRequest, FactorRequest, RegisterRequest and
// SolveResponse remain its schema, every number decodes to the bits
// strconv.ParseFloat gives it, and the response bytes are those
// json.NewEncoder wrote. Small replies (factor, register, stats, errors)
// are still encoding/json's.
//
// Buffer lifetime: the body, every decoded array and the response bytes of
// a request live in one scratch taken from a sync.Pool and put back once the
// reply is written. Nothing that outlives the request may point into it —
// registration clones what the registry keeps, and the pool gathers a
// matrix into storage of its own before any worker runs. A request that
// panics does not return its scratch.
//
// The scanner accepts a subset of what the encoding/json decoder accepted,
// and gives what it accepts the same meaning (member names still match
// exactly or under case folding, unknown members are skipped, null leaves a
// member unset, strings take the same escapes). It is stricter in that
//
//   - the body must be one JSON object followed by nothing but whitespace
//     (encoding/json read a top-level null as an empty request and ignored
//     whatever followed the value);
//   - a member an endpoint knows may appear once per object (encoding/json
//     let the last occurrence win, merging repeated matrix objects);
//   - null is refused inside arrays — as an element of a numeric array
//     (encoding/json read 0) or as a row of bs (a nil row);
//   - a member an endpoint does not know may nest at most 32 levels deep
//     (encoding/json allowed 10 000);
//   - decoding stops at the first defect, and once an id naming a registered
//     pattern has been read, a values, b or row of bs longer than that
//     pattern allows is a dimension_mismatch before it is stored, whatever
//     else is wrong further on;
//   - a declared Content-Length over Options.MaxBodyBytes is a 413 before
//     a byte is read.
//
// Every refusal is a 400 bad_input, a 400 dimension_mismatch or a 413
// body_too_large; FuzzDecodeRequest holds the scanner to all of this.
//
// Endpoints:
//
//	POST /v1/matrices  register a matrix template (CSC or triplets); returns
//	                   a pattern id for values-only refresh traffic
//	POST /v1/factor    factor (or refresh) a matrix into the pool cache
//	POST /v1/solve     factor/refresh + solve one or many right-hand sides
//	GET  /v1/stats     pool + server counters
//	GET  /healthz      liveness
//	GET  /debug/vars   expvar (mount point for the pool's expvar bridges)
//
// Error mapping (body {"error":{"code","message"}}):
//
//	400 bad_input | not_finite | dimension_mismatch | body_too_large (413)
//	404 unknown_pattern
//	422 singular
//	422 not_finite_solution (the solution overflows but the factorization is
//	                         finite; entry kept)
//	499 canceled            (client closed request / context canceled)
//	503 overloaded          (server admission: MaxInFlight exceeded)
//	503 stalled             (stall watchdog aborted the sweep)
//	504 deadline_exceeded   (request deadline fired mid-sweep)
//	500 internal_panic      (recovered worker panic; entry evicted)
//	500 not_finite_solution (the solution and the factorization are not
//	                         finite; entry discarded)
package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"

	basker "repro"
	"repro/internal/sparse"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx's
// "client closed request") reported when the caller's context was canceled
// — there is no requester left to read a real status.
const StatusClientClosedRequest = 499

// MatrixJSON is a sparse matrix in compressed sparse column form on the
// wire.
type MatrixJSON struct {
	M      int       `json:"m"`
	N      int       `json:"n"`
	Colptr []int     `json:"colptr"`
	Rowidx []int     `json:"rowidx"`
	Values []float64 `json:"values"`
}

// TripletsJSON is coordinate-form assembly input: entry k adds Values[k] at
// (Rows[k], Cols[k]), duplicates summing — circuit-stamping semantics.
type TripletsJSON struct {
	M      int       `json:"m"`
	N      int       `json:"n"`
	Rows   []int     `json:"rows"`
	Cols   []int     `json:"cols"`
	Values []float64 `json:"values"`
}

// wireError is a request defect detected at the wire layer, before the
// solver sees anything.
type wireError struct {
	status int
	code   string
	msg    string
}

func (e *wireError) Error() string { return e.msg }

func badRequest(code, format string, args ...any) *wireError {
	return &wireError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// toCSC checks the structural CSC invariants (lengths, monotone in-range
// column pointers, in-range sorted rows) and wraps the arrays without
// copying. A structural defect is the client's, so it is a 400 bad_input
// whatever basker.Options.ValidateInputs says; finiteness stays behind the
// solver's ValidateInputs screen, reported through the error taxonomy.
// That screen does not repeat this pass (see requestContext).
func (mj *MatrixJSON) toCSC() (*basker.Matrix, error) {
	if mj.M <= 0 || mj.N <= 0 {
		return nil, badRequest("bad_input", "matrix dimensions %dx%d must be positive", mj.M, mj.N)
	}
	a := &basker.Matrix{M: mj.M, N: mj.N, Colptr: mj.Colptr, Rowidx: mj.Rowidx, Values: mj.Values}
	if err := a.Check(); err != nil {
		return nil, badRequest("bad_input", "matrix: %v", err)
	}
	return a, nil
}

// toCSC assembles the triplets the way the library's accumulator does
// (duplicates sum), yielding sorted CSC in arrays of its own.
func (tj *TripletsJSON) toCSC() (*basker.Matrix, error) {
	if tj.M <= 0 || tj.N <= 0 {
		return nil, badRequest("bad_input", "matrix dimensions %dx%d must be positive", tj.M, tj.N)
	}
	if len(tj.Rows) != len(tj.Cols) || len(tj.Rows) != len(tj.Values) {
		return nil, badRequest("bad_input", "triplet arrays disagree: %d rows, %d cols, %d values",
			len(tj.Rows), len(tj.Cols), len(tj.Values))
	}
	for k := range tj.Rows {
		i, j := tj.Rows[k], tj.Cols[k]
		if i < 0 || i >= tj.M || j < 0 || j >= tj.N {
			return nil, badRequest("bad_input", "triplet %d at (%d,%d) outside %dx%d", k, i, j, tj.M, tj.N)
		}
	}
	coo := sparse.COO{M: tj.M, N: tj.N, Row: tj.Rows, Col: tj.Cols, Val: tj.Values}
	return coo.ToCSC(false), nil
}

// SolveRequest asks for A·x = b (or a batch). Exactly one of Matrix,
// Triplets or ID selects the matrix; with ID, Values optionally restamps
// the registered pattern's values (refactor→solve traffic) and an absent
// Values solves against the registered values (pure amortized solve).
type SolveRequest struct {
	Matrix   *MatrixJSON   `json:"matrix,omitempty"`
	Triplets *TripletsJSON `json:"triplets,omitempty"`
	ID       string        `json:"id,omitempty"`
	Values   []float64     `json:"values,omitempty"`
	// B is one right-hand side; Bs a batch. Exactly one must be set.
	B  []float64   `json:"b,omitempty"`
	Bs [][]float64 `json:"bs,omitempty"`
	// Mode "refresh" (default) reuses a cached same-pattern factorization
	// through the incremental refactorization path; "fresh" forces new
	// pivots (values drifted far from the ones that chose them).
	Mode string `json:"mode,omitempty"`
	// TimeoutMillis bounds this request's factor+solve work; 0 uses the
	// server default. The deadline propagates into the numeric sweeps.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// SolveResponse carries the solution(s) overwriting the request's b shape.
type SolveResponse struct {
	X         []float64   `json:"x,omitempty"`
	Xs        [][]float64 `json:"xs,omitempty"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// appendSolveResponse appends the bytes json.NewEncoder(w).Encode writes
// for SolveResponse{X: x, Xs: xs, ElapsedMS: elapsedMS}, trailing newline
// included. The numbers must be finite.
func appendSolveResponse(dst []byte, x []float64, xs [][]float64, elapsedMS float64) []byte {
	count := len(x)
	for _, row := range xs {
		count += len(row)
	}
	dst = slices.Grow(dst, 64+24*count) // a shortest-form double is rarely longer
	dst = append(dst, '{')
	if len(x) > 0 {
		dst = appendFloats(append(dst, `"x":`...), x)
		dst = append(dst, ',')
	}
	if len(xs) > 0 {
		dst = append(dst, `"xs":[`...)
		for i, row := range xs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloats(dst, row)
		}
		dst = append(dst, "],"...)
	}
	dst = appendFloat(append(dst, `"elapsed_ms":`...), elapsedMS)
	return append(dst, "}\n"...)
}

func appendFloats(dst []byte, xs []float64) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, v)
	}
	return append(dst, ']')
}

// appendFloat formats v as encoding/json does: the shortest digits that
// round-trip, as an ES6 number — positional except below 1e-6 and from 1e21
// up, where the exponent is written without a leading zero.
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst
}

// FactorRequest warms or refreshes the pool cache for a matrix without
// solving — the assemble→factor half of the serving loop.
type FactorRequest struct {
	Matrix        *MatrixJSON   `json:"matrix,omitempty"`
	Triplets      *TripletsJSON `json:"triplets,omitempty"`
	ID            string        `json:"id,omitempty"`
	Values        []float64     `json:"values,omitempty"`
	Mode          string        `json:"mode,omitempty"`
	TimeoutMillis int64         `json:"timeout_ms,omitempty"`
}

// FactorResponse reports what the factorization cost and produced.
type FactorResponse struct {
	N         int     `json:"n"`
	NnzLU     int     `json:"nnz_lu"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RegisterRequest registers a matrix template for values-only traffic.
type RegisterRequest struct {
	Matrix   *MatrixJSON   `json:"matrix,omitempty"`
	Triplets *TripletsJSON `json:"triplets,omitempty"`
	// Warm also factors the template into the cache before returning.
	Warm          bool  `json:"warm,omitempty"`
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// RegisterResponse names the registered pattern. IDs are content-derived
// (a hash of the sparsity pattern), so re-registering the same pattern is
// idempotent and updates the template values.
type RegisterResponse struct {
	ID  string `json:"id"`
	N   int    `json:"n"`
	Nnz int    `json:"nnz"`
}

// ErrorBody is every non-2xx response's JSON shape.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code (stable, documented above)
// and a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorStatus maps the solver's typed error taxonomy onto HTTP status and
// wire code — the serving layer's contract, locked by the error-mapping
// table test. Order matters where errors wrap each other (ErrNotFinite
// also matches ErrBadInput; the specific code wins).
func errorStatus(err error) (int, string) {
	var we *wireError
	switch {
	case errors.As(err, &we):
		return we.status, we.code
	case errors.Is(err, basker.ErrDimensionMismatch):
		return http.StatusBadRequest, "dimension_mismatch"
	case errors.Is(err, basker.ErrNotFinite):
		return http.StatusBadRequest, "not_finite"
	case errors.Is(err, basker.ErrBadInput):
		return http.StatusBadRequest, "bad_input"
	case errors.Is(err, basker.ErrSingular):
		return http.StatusUnprocessableEntity, "singular"
	case errors.Is(err, basker.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, basker.ErrCanceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, basker.ErrStalled):
		return http.StatusServiceUnavailable, "stalled"
	case errors.Is(err, basker.ErrInternalPanic):
		return http.StatusInternalServerError, "internal_panic"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// finiteSlice reports whether every component is a real number.
func finiteSlice(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// patternID derives the content-addressed registration id from a sparsity
// pattern (FNV-1a over dimensions, column pointers and row indices — the
// same quantities the pool keys on).
func patternID(a *basker.Matrix) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(a.M)) * prime64
	h = (h ^ uint64(a.N)) * prime64
	for _, c := range a.Colptr {
		h = (h ^ uint64(c)) * prime64
	}
	for _, r := range a.Rowidx {
		h = (h ^ uint64(r)) * prime64
	}
	return fmt.Sprintf("p-%016x", h)
}
