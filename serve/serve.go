package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	basker "repro"
)

// Options configures the HTTP front end. The pool itself is constructed by
// the caller (admission control, memory bound, fault injection for chaos
// tests) and handed to NewServer.
type Options struct {
	// MaxInFlight bounds concurrently executing /v1/ requests; excess
	// traffic is shed immediately with 503 overloaded rather than queued
	// (the pool's own MaxConcurrentFactors queues; this layer does not).
	// 0 means unlimited.
	MaxInFlight int
	// MaxBodyBytes bounds request bodies; beyond it the request fails with
	// 413 body_too_large. 0 means the 64 MiB default.
	MaxBodyBytes int64
	// DefaultTimeout applies to requests that carry no timeout_ms. 0 means
	// no server-imposed deadline (the client's connection is still the
	// cancellation source).
	DefaultTimeout time.Duration
}

const defaultMaxBody = 64 << 20

// Server serves assemble→factor→solve traffic over one factorization
// pool.
type Server struct {
	pool     *basker.Pool
	opts     Options
	mux      *http.ServeMux
	inflight chan struct{} // admission tokens; nil when unlimited

	// registry maps a pattern id to its registered matrix template. The
	// pattern arrays are shared read-only with values-only requests; the
	// solver never mutates its input matrix.
	registry sync.Map // pattern id -> *basker.Matrix
	patterns atomic.Int64

	requests atomic.Uint64 // /v1/ requests accepted for processing
	shed     atomic.Uint64 // /v1/ requests rejected by admission
	failures atomic.Uint64 // /v1/ requests answered with an error body
}

// scratchPool recycles request scratch between requests; see scratch for
// what may and may not point into one.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// solverHandler is a /v1/ endpoint that reads a request body: it is handed
// the scratch its request lives in.
type solverHandler func(w http.ResponseWriter, r *http.Request, sc *scratch)

// ServerStats is the front end's own counter block, reported beside the
// pool's in /v1/stats.
type ServerStats struct {
	Requests uint64 `json:"requests"`
	Shed     uint64 `json:"shed"`
	Failures uint64 `json:"failures"`
	InFlight int    `json:"in_flight"`
	Patterns int64  `json:"patterns"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Pool   basker.PoolStats `json:"pool"`
	Server ServerStats      `json:"server"`
}

// NewServer wires the handlers over the given pool.
func NewServer(pool *basker.Pool, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBody
	}
	s := &Server{pool: pool, opts: opts, mux: http.NewServeMux()}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	s.mux.HandleFunc("POST /v1/solve", s.admit(s.handleSolve))
	s.mux.HandleFunc("POST /v1/factor", s.admit(s.handleFactor))
	s.mux.HandleFunc("POST /v1/matrices", s.admit(s.handleRegister))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s
}

// Handler returns the front end as an http.Handler for mounting or for
// httptest.
func (s *Server) Handler() http.Handler { return s }

// Pool exposes the backing pool (for operational hooks such as expvar
// publication at process startup).
func (s *Server) Pool() *basker.Pool { return s.pool }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stats snapshots the front end's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Requests: s.requests.Load(),
		Shed:     s.shed.Load(),
		Failures: s.failures.Load(),
		Patterns: s.patterns.Load(),
	}
	if s.inflight != nil {
		st.InFlight = len(s.inflight)
	}
	return st
}

// admit applies load shedding and panic containment around a solver
// endpoint. A handler panic must answer 500 and keep the process alive —
// the chaos battery's survival property — and a full server must shed
// immediately so health checks and queued upstream load balancers see
// backpressure, not latency.
func (s *Server) admit(h solverHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusServiceUnavailable, "overloaded",
					"server is at its in-flight request limit")
				return
			}
		}
		s.requests.Add(1)
		defer func() {
			if p := recover(); p != nil {
				s.writeError(w, http.StatusInternalServerError, "internal_panic",
					"request handler panicked; request dropped")
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		sc := scratchPool.Get().(*scratch)
		h(w, r, sc)
		// Not deferred: after a panic nobody can say what still points into
		// sc, so it is left to the collector.
		scratchPool.Put(sc)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.failures.Add(1)
	s.writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// fail maps a solver or wire error onto its HTTP shape.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	s.writeError(w, status, code, err.Error())
}

var errBodyTooLarge = &wireError{status: http.StatusRequestEntityTooLarge, code: "body_too_large",
	msg: "request body exceeds the server limit"}

// readRequest reads the request body into sc and decodes it as the request
// object of an endpoint that takes the members in keys, translating size
// and syntax defects into wire errors. A body that declares its length is
// refused or given its buffer before a byte is read; one that does not
// (chunked) grows its buffer under the MaxBytesReader admit installed.
func (s *Server) readRequest(r *http.Request, keys uint, sc *scratch) (*request, error) {
	if r.ContentLength > s.opts.MaxBodyBytes {
		return nil, errBodyTooLarge
	}
	body := slices.Grow(sc.body[:0], int(max(r.ContentLength, 0))+bytes.MinRead)
	for {
		n, err := r.Body.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			var maxBytes *http.MaxBytesError
			if errors.As(err, &maxBytes) {
				return nil, errBodyTooLarge
			}
			return nil, badRequest("bad_input", "reading request body: %v", err)
		}
		if len(body) == cap(body) {
			body = slices.Grow(body, bytes.MinRead)
		}
	}
	sc.body = body
	return s.decodeRequest(body, keys, sc)
}

// resolveMatrix turns a request's matrix selector — inline CSC, inline
// triplets, or registered id with optional replacement values — into the
// CSC the pool factors.
func (s *Server) resolveMatrix(req *request) (*basker.Matrix, error) {
	mj, tj, id, values := req.matrix, req.triplets, req.id, req.values
	selectors := 0
	if mj != nil {
		selectors++
	}
	if tj != nil {
		selectors++
	}
	if id != "" {
		selectors++
	}
	if selectors != 1 {
		return nil, badRequest("bad_input",
			"exactly one of matrix, triplets or id must select the system (got %d selectors)", selectors)
	}
	switch {
	case mj != nil:
		return mj.toCSC()
	case tj != nil:
		return tj.toCSC()
	}
	v, ok := s.registry.Load(id)
	if !ok {
		return nil, &wireError{status: http.StatusNotFound, code: "unknown_pattern",
			msg: "no registered matrix with id " + id}
	}
	pat := v.(*basker.Matrix)
	if values == nil {
		return pat, nil
	}
	if len(values) != len(pat.Values) {
		return nil, badRequest("dimension_mismatch",
			"values carries %d entries; pattern %s has %d nonzeros", len(values), id, len(pat.Values))
	}
	// Shallow template: the immutable pattern arrays are shared, the values
	// are this request's own — the refactor→solve wire path allocates only
	// what the client sent.
	return &basker.Matrix{M: pat.M, N: pat.N, Colptr: pat.Colptr, Rowidx: pat.Rowidx, Values: values}, nil
}

// requestContext derives the work deadline for one request: the client
// connection is always a cancellation source, timeout_ms (or the server
// default) adds a deadline on top.
func (s *Server) requestContext(r *http.Request, timeoutMillis int64) (context.CancelFunc, context.Context) {
	base := r.Context()
	d := s.opts.DefaultTimeout
	if timeoutMillis > 0 {
		d = time.Duration(timeoutMillis) * time.Millisecond
	}
	if d <= 0 {
		return func() {}, base
	}
	c, cancel := context.WithTimeout(base, d)
	return cancel, c
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, sc *scratch) {
	start := time.Now()
	req, err := s.readRequest(r, solveKeys, sc)
	if err != nil {
		s.fail(w, err)
		return
	}
	if (req.b == nil) == (len(req.bs) == 0) {
		s.fail(w, badRequest("bad_input", "exactly one of b or bs must be set"))
		return
	}
	a, err := s.resolveMatrix(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	cancel, ctx := s.requestContext(r, req.timeoutMillis)
	defer cancel()
	lease, err := s.acquire(ctx, a, req.mode)
	if err != nil {
		s.fail(w, err)
		return
	}
	if req.b != nil {
		err = lease.SolveCtx(ctx, req.b)
	} else {
		err = lease.SolveManyCtx(ctx, req.bs)
	}
	if err != nil {
		lease.Release()
		s.fail(w, err)
		return
	}
	// Finiteness screen: silent numeric corruption (the KernelNaN chaos
	// mode) can survive factorization and surface only in the solution.
	// A non-finite answer is never served; the factorization that produced
	// it is discarded so the next same-pattern request refactors cleanly.
	finite := finiteSlice(req.b)
	for _, b := range req.bs {
		finite = finite && finiteSlice(b)
	}
	if !finite {
		lease.Discard()
		s.writeError(w, http.StatusInternalServerError, "not_finite_solution",
			"computed solution contains NaN or Inf; cached factorization discarded")
		return
	}
	lease.Release()
	// The solves ran in place: b and bs now hold x and xs.
	sc.resp = appendSolveResponse(sc.resp[:0], req.b, req.bs, float64(time.Since(start))/float64(time.Millisecond))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.resp)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.resp) // a client that has gone away is the only failure, and nobody's to report
}

func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request, sc *scratch) {
	start := time.Now()
	req, err := s.readRequest(r, factorKeys, sc)
	if err != nil {
		s.fail(w, err)
		return
	}
	a, err := s.resolveMatrix(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	cancel, ctx := s.requestContext(r, req.timeoutMillis)
	defer cancel()
	lease, err := s.acquire(ctx, a, req.mode)
	if err != nil {
		s.fail(w, err)
		return
	}
	st := lease.Stats(a)
	lease.Release()
	s.writeJSON(w, http.StatusOK, FactorResponse{
		N:         a.N,
		NnzLU:     st.NnzLU,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request, sc *scratch) {
	req, err := s.readRequest(r, registerKeys, sc)
	if err != nil {
		s.fail(w, err)
		return
	}
	if (req.matrix == nil) == (req.triplets == nil) {
		s.fail(w, badRequest("bad_input", "exactly one of matrix or triplets must be set"))
		return
	}
	var a *basker.Matrix
	if req.matrix != nil {
		if a, err = req.matrix.toCSC(); err == nil {
			a = a.Clone() // the registry keeps it; the request's arrays go back to scratchPool
		}
	} else {
		a, err = req.triplets.toCSC()
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	id := patternID(a)
	if _, existed := s.registry.Swap(id, a); !existed {
		s.patterns.Add(1)
	}
	if req.warm {
		cancel, ctx := s.requestContext(r, req.timeoutMillis)
		defer cancel()
		lease, err := s.pool.AcquireCtx(ctx, a)
		if err != nil {
			s.fail(w, err)
			return
		}
		lease.Release()
	}
	s.writeJSON(w, http.StatusOK, RegisterResponse{
		ID:  id,
		N:   a.N,
		Nnz: len(a.Values),
	})
}

// acquire picks the pool entry point for the request mode: "refresh"
// (default) rides the cached-pattern refactorization path, "fresh" forces
// a newly pivoted factorization.
func (s *Server) acquire(ctx context.Context, a *basker.Matrix, mode string) (*basker.Lease, error) {
	switch mode {
	case "", "refresh":
		return s.pool.AcquireCtx(ctx, a)
	case "fresh":
		return s.pool.Factor(a)
	default:
		return nil, badRequest("bad_input", "mode %q is not one of refresh, fresh", mode)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Pool:   s.pool.Stats(),
		Server: s.Stats(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
