// Package basker is a pure-Go reimplementation of Basker, the threaded
// sparse LU factorization with hierarchical parallelism and data layouts of
// Booth, Rajamanickam and Thornquist (IPDPS 2016). It targets unsymmetric,
// low fill-in matrices from circuit and power-grid simulation.
//
// The solver permutes the matrix to block triangular form (BTF), factors
// the many small diagonal blocks embarrassingly in parallel with the
// Gilbert–Peierls algorithm, and factors each large block through a
// nested-dissection 2D block hierarchy in which multiple goroutines
// cooperate on a single block column with point-to-point synchronization —
// the paper's parallel Gilbert–Peierls.
//
// Quick start:
//
//	tr := basker.NewTriplets(n, n)
//	tr.Add(i, j, v) // stamp the matrix
//	A := tr.Matrix()
//	s, err := basker.New(basker.Options{Threads: 4}).Factor(A)
//	if err != nil { ... }
//	s.Solve(b) // b becomes x with A·x = b
//
// For repeated factorizations of matrices with a fixed sparsity pattern
// (transient circuit simulation), use Refactor, which reuses the symbolic
// analysis and pivot sequences.
package basker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/order/matching"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/trisolve"
)

// Matrix is a sparse matrix in compressed sparse column form.
type Matrix = sparse.CSC

// Triplets is a coordinate-format accumulator for building matrices;
// duplicate entries are summed, matching circuit-stamping semantics.
type Triplets struct {
	coo *sparse.COO
}

// NewTriplets returns an empty m×n accumulator.
func NewTriplets(m, n int) *Triplets {
	return &Triplets{coo: sparse.NewCOO(m, n, 64)}
}

// Add accumulates v at position (i, j).
func (t *Triplets) Add(i, j int, v float64) { t.coo.Add(i, j, v) }

// Matrix compresses the triplets into CSC form.
func (t *Triplets) Matrix() *Matrix { return t.coo.ToCSC(false) }

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarket(r) }

// WriteMatrixMarket writes m in MatrixMarket coordinate format.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return sparse.WriteMatrixMarket(w, m) }

// Options configures a Solver.
type Options struct {
	// Threads is the number of worker goroutines (the fine-ND engine uses
	// the largest power of two ≤ Threads). Default 1.
	Threads int
	// DisableBTF turns off the coarse block triangular form.
	DisableBTF bool
	// DisableMWCM replaces the bottleneck weighted matching with a plain
	// maximum cardinality matching.
	DisableMWCM bool
	// PivotTol is the partial-pivoting diagonal preference tolerance in
	// (0, 1]; 0 selects KLU's default 0.001. 1 forces partial pivoting.
	PivotTol float64
	// BigBlockMin is the smallest BTF block factored with the parallel
	// nested-dissection engine (default 128).
	BigBlockMin int
	// DisableLocalAMD turns off AMD ordering inside ND diagonal blocks.
	DisableLocalAMD bool
	// Trace, when non-nil, records per-kernel scheduler events from every
	// phase (analyze, factor, refactor, partial refactor, parallel solve)
	// into the given recorder: per-sweep profiles come back through
	// Factorization.Profile, the raw timeline through
	// Factorization.WriteTrace. A nil Trace keeps every hot path on its
	// untraced, allocation-free fast path.
	Trace *Tracer
	// ValidateInputs screens every matrix entering Factor and the Refactor
	// family for structural CSC invariants and non-finite (NaN/Inf) values
	// before any numeric work, reporting ErrBadInput/ErrNotFinite instead of
	// propagating garbage into the factors. The screen is O(nnz); cheap O(1)
	// dimension checks are always on regardless of this flag.
	ValidateInputs bool
	// StallTimeout arms the per-sweep stall watchdog: a parallel sweep
	// (factor, refactor, partial refactor, panel-parallel SolveMany) that
	// makes no progress for this long is aborted with ErrStalled naming the
	// stuck block and worker lane, and the factorization is left poisoned but
	// recoverable (RefactorRobust or a fresh Factor restores it). 0 — the
	// default — disables the watchdog. Serial sweeps run on the caller's
	// goroutine and cannot be unwound by the watchdog.
	StallTimeout time.Duration

	// inject arms the numeric engine's deterministic fault-injection points
	// (chaos tests only; set by in-package tests or InjectFaults, nil in
	// production).
	inject *faultinject.Injector
}

// InjectFaults returns a copy of o with the numeric engine's deterministic
// fault-injection harness (internal/faultinject) armed — the hook chaos
// tests of layers built on the public API (the serve package's full-stack
// suite) use to force worker panics, NaN kernels, pivot failures and stalls
// at exact points. The parameter type lives in an internal package, so
// nothing outside this module can arm it; production callers leave
// injection off.
func (o Options) InjectFaults(inj *faultinject.Injector) Options {
	o.inject = inj
	return o
}

// Tracer is the scheduler event recorder of the observability layer: a
// fixed-capacity lock-free ring any number of workers record into. One
// Tracer may be shared by several solvers/pools; see NewTracer.
type Tracer = trace.Recorder

// Profile is a per-sweep scheduler summary: wall/work/wait seconds, the
// point-to-point sync-overhead fraction (2.3 % in the paper), effective
// parallelism, per-worker utilization and the top straggler blocks.
type Profile = trace.Summary

// NewTracer returns a Tracer whose event ring holds at least capacity
// events (<= 0 selects a 65536-event default). Pass it through
// Options.Trace, then read profiles with Factorization.Profile or export
// the timeline with Factorization.WriteTrace.
func NewTracer(capacity int) *Tracer { return trace.NewRecorder(capacity) }

func (o Options) internal() core.Options {
	c := core.DefaultOptions()
	c.Threads = o.Threads
	c.UseBTF = !o.DisableBTF
	c.UseMWCM = !o.DisableMWCM
	if o.PivotTol > 0 {
		c.PivotTol = o.PivotTol
	}
	if o.BigBlockMin > 0 {
		c.BigBlockMin = o.BigBlockMin
	}
	c.LocalAMD = !o.DisableLocalAMD
	c.Trace = o.Trace
	c.ValidateInputs = o.ValidateInputs
	c.StallTimeout = o.StallTimeout
	c.Inject = o.inject
	return c
}

// ErrSingular reports a numerically or structurally singular matrix.
var ErrSingular = errors.New("basker: matrix is singular")

// Input-validation and health errors. All are matched with errors.Is; the
// wrapped error carries the specifics.
var (
	// ErrBadInput reports a malformed input matrix: broken CSC invariants
	// (column pointers, row ranges, ordering) or, with
	// Options.ValidateInputs, non-finite values. Every validation error
	// matches ErrBadInput.
	ErrBadInput = errors.New("basker: malformed input matrix")
	// ErrNotFinite reports NaN or Inf among the input values (it also
	// matches ErrBadInput).
	ErrNotFinite = errors.New("basker: input has non-finite values")
	// ErrDimensionMismatch reports a shape disagreement: a non-square
	// matrix, a right-hand side of the wrong length, or a refresh matrix
	// whose dimensions differ from the factored one. These O(1) checks are
	// always on.
	ErrDimensionMismatch = errors.New("basker: dimension mismatch")
	// ErrInternalPanic reports that a worker goroutine panicked during a
	// numeric sweep. The panic was recovered and its siblings drained; the
	// factorization is poisoned until a subsequent Factor/Refactor succeeds.
	// The wrapped error carries the panic value and stack.
	ErrInternalPanic = errors.New("basker: internal panic")
	// ErrIllConditioned is the advisory Factorization.Check reports when the
	// estimated reciprocal condition number says solutions may carry no
	// correct digits. The factorization remains usable — pair solves with
	// SolveRefined and inspect RefineResult.BackwardError.
	ErrIllConditioned = errors.New("basker: matrix is ill-conditioned")
)

// Cancellation and watchdog errors of the context-accepting entry points
// (FactorCtx, RefactorCtx and friends). A sweep aborted by any of these
// leaves the factorization poisoned but recoverable: RefactorRobust or a
// fresh Factor re-establishes a consistent state.
var (
	// ErrCanceled reports that the caller's context was cancelled mid-sweep.
	// It wraps context.Canceled, so errors.Is matches either.
	ErrCanceled = core.ErrCanceled
	// ErrDeadlineExceeded reports that the caller's context deadline fired
	// mid-sweep. It wraps context.DeadlineExceeded.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrStalled reports that the stall watchdog (Options.StallTimeout)
	// aborted a sweep that made no progress. The concrete error is a
	// *StallError; match the class with errors.Is and the diagnostics with
	// errors.As.
	ErrStalled = core.ErrStalled
)

// StallError carries the stall watchdog's diagnostics: the sweep name, the
// first coarse block still pending when the watchdog fired, the fine-BTF
// worker lane owning it (-1 for cooperative fine-ND teams or when unknown),
// and how long the sweep had been idle.
type StallError = core.StallError

// checkMatrix is the always-on O(1) screen of every entry point that takes
// a *Matrix: a nil matrix or a negative dimension reports ErrBadInput
// instead of a nil dereference or an out-of-range slice.
func checkMatrix(a *Matrix) error {
	if a == nil {
		return fmt.Errorf("%w: nil matrix", ErrBadInput)
	}
	if a.M < 0 || a.N < 0 {
		return fmt.Errorf("%w: matrix is %d×%d, dimensions must not be negative", ErrBadInput, a.M, a.N)
	}
	return nil
}

// validateInput is the gated O(nnz) screen of the API boundary.
func validateInput(a *Matrix, on bool) error {
	if !on {
		return nil
	}
	if err := a.Check(); err != nil {
		return errors.Join(ErrBadInput, err)
	}
	if err := a.CheckFinite(); err != nil {
		return errors.Join(ErrBadInput, ErrNotFinite, err)
	}
	return nil
}

// Solver is a configured Basker instance.
type Solver struct {
	opts core.Options
}

// New returns a Solver with the given options.
func New(opts Options) *Solver {
	return &Solver{opts: opts.internal()}
}

// Factorization holds the result of a factorization; it can solve systems
// (from any number of goroutines, singly or in batches) and be numerically
// refreshed for same-pattern matrices.
type Factorization struct {
	num *core.Numeric
	ts  *trisolve.Solver
}

// Factor analyzes and numerically factors a.
func (s *Solver) Factor(a *Matrix) (*Factorization, error) {
	return s.FactorCtx(context.Background(), a)
}

// FactorCtx is Factor with cooperative cancellation: a ctx that is
// cancelled or deadline-expired mid-sweep aborts the numeric factorization
// at the next block boundary and returns ErrCanceled or
// ErrDeadlineExceeded (both matching the corresponding context errors with
// errors.Is). A Done-capable ctx also arms the sweep monitor, as does
// Options.StallTimeout. context.Background() keeps the exact fast path of
// Factor.
func (s *Solver) FactorCtx(ctx context.Context, a *Matrix) (*Factorization, error) {
	if err := checkMatrix(a); err != nil {
		return nil, err
	}
	if a.M != a.N {
		return nil, fmt.Errorf("%w: matrix is %d×%d, want square", ErrDimensionMismatch, a.M, a.N)
	}
	if err := validateInput(a, s.opts.ValidateInputs); err != nil {
		return nil, err
	}
	num, err := core.FactorDirectCtx(ctx, a, s.opts)
	if err != nil {
		return nil, wrapErr(err)
	}
	return newFactorization(num), nil
}

func newFactorization(num *core.Numeric) *Factorization {
	workers := num.Sym.Opts.Threads
	if workers < 1 {
		workers = 1
	}
	return &Factorization{
		num: num,
		ts:  trisolve.New(num, trisolve.Options{Workers: workers}),
	}
}

// Solve solves A·x = b in place: b is overwritten with x. It is reentrant
// — any number of goroutines may call Solve, SolveMany and SolveRefined on
// one Factorization concurrently (but not concurrently with Refactor).
// One right-hand side is one serial back-substitution in pivot order on
// the caller's goroutine, at every Threads setting, with its scratch from
// an internal workspace pool: allocation-free in steady state. A
// wrong-length b reports ErrDimensionMismatch; a non-nil error leaves b
// unspecified but never harms the factorization (solves only read it).
func (f *Factorization) Solve(b []float64) error {
	if n := f.num.Sym.N; len(b) != n {
		return fmt.Errorf("%w: len(b) = %d, want %d", ErrDimensionMismatch, len(b), n)
	}
	return wrapErr(f.ts.Solve(b))
}

// SolveCtx is Solve with a context check at entry: a ctx that has already
// expired returns ErrCanceled or ErrDeadlineExceeded with b untouched.
// The solve itself is one uninterruptible serial sweep, so neither a ctx
// that fires mid-solve nor Options.StallTimeout arms a monitor; the batch
// entry points (SolveManyCtx) are the cancellable solves.
func (f *Factorization) SolveCtx(ctx context.Context, b []float64) error {
	if n := f.num.Sym.N; len(b) != n {
		return fmt.Errorf("%w: len(b) = %d, want %d", ErrDimensionMismatch, len(b), n)
	}
	return wrapErr(f.ts.SolveCtx(ctx, b))
}

// SolveMany solves A·xᵢ = bᵢ in place for every right-hand side. The batch
// is cut into panels of 8 vectors; each panel is packed once, in the
// factorization's pivot order, into a row-interleaved buffer (row i of all
// 8 vectors is one cache line) and runs a single back-substitution sweep in
// which every diagonal block is solved in place and every factor entry —
// small blocks, the fine-ND block, off-block couplings — is loaded once and
// applied to all 8 lanes; panels are dealt to the solver's worker
// goroutines. Allocation-free in steady state on the serial path. Each bᵢ
// must have length n (checked up front, before any vector is touched). Per
// right-hand side the floating-point operation order is Solve's, so every
// component compares == with calling Solve on each bᵢ.
func (f *Factorization) SolveMany(bs [][]float64) error {
	n := f.num.Sym.N
	for i, b := range bs {
		if len(b) != n {
			return fmt.Errorf("%w: len(bs[%d]) = %d, want %d", ErrDimensionMismatch, i, len(b), n)
		}
	}
	return wrapErr(f.ts.SolveMany(bs))
}

// SolveManyCtx is SolveMany with cooperative cancellation: workers stop
// picking up panels once ctx fires and the call returns ErrCanceled or
// ErrDeadlineExceeded with the batch partially solved (every bᵢ is then
// unspecified). The sweep joins fully before returning, so cancellation
// accelerates the unwind rather than abandoning work in flight.
func (f *Factorization) SolveManyCtx(ctx context.Context, bs [][]float64) error {
	n := f.num.Sym.N
	for i, b := range bs {
		if len(b) != n {
			return fmt.Errorf("%w: len(bs[%d]) = %d, want %d", ErrDimensionMismatch, i, len(b), n)
		}
	}
	return wrapErr(f.ts.SolveManyCtx(ctx, bs))
}

// SolveMatrix solves A·X = B in place for a dense column-major
// right-hand-side block: x holds nrhs vectors of length n back to back. It
// is SolveMany's sweep, packing panels straight from x.
func (f *Factorization) SolveMatrix(x []float64, nrhs int) error {
	n := f.num.Sym.N
	if nrhs < 0 || len(x) != n*nrhs {
		return fmt.Errorf("%w: SolveMatrix: len(x) = %d, want n·nrhs = %d·%d", ErrDimensionMismatch, len(x), n, nrhs)
	}
	return wrapErr(f.ts.SolveMatrix(x, nrhs))
}

// Refactor recomputes the numeric factorization for a matrix with the same
// sparsity pattern, reusing orderings, factor patterns and pivot
// sequences. This is the fast path of transient simulation: after the
// first call builds its entry maps, every subsequent call refreshes all
// numeric values in place with zero allocations, sweeping independent BTF
// blocks concurrently. A diagonal block whose reused pivot sequence is
// defeated by the new values is transparently re-pivoted on its own.
//
// Refactor must not run concurrently with solves or other Refactor calls
// on the same Factorization (Refactor between solve batches is fine). If
// Refactor returns an error, the factorization's numeric values are
// unspecified and it must not be solved with until a subsequent Refactor
// succeeds or it is discarded for a fresh Factor.
func (f *Factorization) Refactor(a *Matrix) error {
	if err := f.refreshChecks(a); err != nil {
		return err
	}
	return wrapErr(f.num.Refactor(a))
}

// RefactorCtx is Refactor with cooperative cancellation: a ctx cancelled or
// deadline-expired mid-sweep aborts at the next block boundary, returning
// ErrCanceled or ErrDeadlineExceeded and leaving the factorization poisoned
// but recoverable (RefactorRobust or a fresh Factor restores it). A
// Done-capable ctx or Options.StallTimeout arms the sweep monitor;
// context.Background() keeps Refactor's zero-allocation steady state.
func (f *Factorization) RefactorCtx(ctx context.Context, a *Matrix) error {
	if err := f.refreshChecks(a); err != nil {
		return err
	}
	return wrapErr(f.num.RefactorCtx(ctx, a))
}

// refreshChecks is the shared API-boundary screen of the Refactor family:
// always-on O(1) nil and dimension checks plus the gated O(nnz) validation
// pass.
func (f *Factorization) refreshChecks(a *Matrix) error {
	if err := checkMatrix(a); err != nil {
		return err
	}
	if n := f.num.Sym.N; a.M != n || a.N != n {
		return fmt.Errorf("%w: matrix is %d×%d, factorization is %d×%d", ErrDimensionMismatch, a.M, a.N, n, n)
	}
	return validateInput(a, f.num.Sym.Opts.ValidateInputs)
}

// RefactorPartial is Refactor for a matrix that differs from the values the
// factorization currently holds only in the listed columns (original
// indices) — the localized-perturbation fast path of transient simulation,
// where each Newton or time step restamps a handful of devices. Only the
// coarse BTF blocks the change set touches are refreshed; inside them, only
// the dependency closure of the dirty columns recomputes (small blocks) or
// the dirty kernels of the 2D hierarchy rerun (fine-ND blocks). Clean
// blocks keep their factors untouched, so steady-state cost scales with
// what the perturbation reaches, not with the matrix. Listing extra
// unchanged columns is allowed; columns not listed must be bitwise
// identical to the previous refresh. Near-total change sets transparently
// degrade to the full Refactor sweep.
//
// Exclusion and error contracts match Refactor. After a failed refresh the
// next incremental call automatically runs a full recovery sweep.
func (f *Factorization) RefactorPartial(a *Matrix, changedCols []int) error {
	if err := f.refreshChecks(a); err != nil {
		return err
	}
	return wrapErr(f.num.RefactorPartial(a, changedCols))
}

// RefactorPartialCtx is RefactorPartial with cooperative cancellation; the
// contract matches RefactorCtx.
func (f *Factorization) RefactorPartialCtx(ctx context.Context, a *Matrix, changedCols []int) error {
	if err := f.refreshChecks(a); err != nil {
		return err
	}
	return wrapErr(f.num.RefactorPartialCtx(ctx, a, changedCols))
}

// RefactorAuto is Refactor with automatic change discovery: incoming values
// are compared bit for bit, in one sequential pass, with a snapshot of the
// values the factorization holds, and only the columns that differ — and
// the blocks their changes reach — are refreshed. A +0 ↔ −0 restamp counts
// as a change, a NaN restamped with the same bits does not. Use it when
// tracking an explicit change set is impractical; the cost over
// RefactorPartial is that compare pass, and when at least half the columns
// changed it runs the full Refactor sweep instead. Pool.Acquire uses this
// path, so pooled lease holders get incremental refreshes transparently.
//
// Exclusion and error contracts match Refactor.
func (f *Factorization) RefactorAuto(a *Matrix) error {
	if err := f.refreshChecks(a); err != nil {
		return err
	}
	return wrapErr(f.num.RefactorAuto(a))
}

// RefactorAutoCtx is RefactorAuto with cooperative cancellation; the
// contract matches RefactorCtx.
func (f *Factorization) RefactorAutoCtx(ctx context.Context, a *Matrix) error {
	if err := f.refreshChecks(a); err != nil {
		return err
	}
	return wrapErr(f.num.RefactorAutoCtx(ctx, a))
}

// RefactorRobust is the graceful-degradation refresh: it tries the
// cheapest path first and falls back rung by rung until one succeeds —
// the change-set-aware incremental sweep, the full pivot-reusing Refactor,
// a fresh pivoting factorization at the configured tolerance, and finally
// a fresh factorization under full partial pivoting (tolerance 1, trading
// sparsity for maximum stability). Use it in long transient sequences
// where occasional pathological steps must not terminate the run; the
// returned error is the last rung's, and only after it does the
// factorization stay poisoned.
func (f *Factorization) RefactorRobust(a *Matrix) error {
	if err := f.refreshChecks(a); err != nil {
		return err
	}
	if err := f.num.RefactorAuto(a); err == nil {
		return nil
	}
	if err := f.num.Refactor(a); err == nil {
		return nil
	}
	if err := f.num.FactorInto(a); err == nil {
		return nil
	}
	return wrapErr(f.num.FactorIntoTol(a, 1.0))
}

// Phase identifies a pipeline stage in scheduler profiles.
type Phase = trace.Phase

// The traced pipeline stages.
const (
	PhaseAnalyze  = trace.PhaseAnalyze
	PhaseFactor   = trace.PhaseFactor
	PhaseRefactor = trace.PhaseRefactor
	PhasePartial  = trace.PhasePartial
)

// tracer returns the recorder this factorization was configured with
// (nil when tracing is off).
func (f *Factorization) tracer() *Tracer { return f.num.Sym.Opts.Trace }

// Profile returns the most recent sweep profile of the given phase, or
// false when tracing is off or no such sweep has run.
func (f *Factorization) Profile(p Phase) (Profile, bool) {
	return f.tracer().LastSummary(p)
}

// Profiles returns every retained per-sweep profile, oldest first (nil
// when tracing is off).
func (f *Factorization) Profiles() []Profile { return f.tracer().Summaries() }

// WriteTrace exports the recorded scheduler timeline as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. It is a no-op writing an empty trace when tracing is
// off. Call between sweeps — events recorded concurrently may be torn.
func (f *Factorization) WriteTrace(w io.Writer) error {
	tr := f.tracer()
	if tr == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	return tr.WriteChromeTrace(w)
}

// NumBlocks reports the number of coarse BTF blocks of the factorization.
func (f *Factorization) NumBlocks() int { return f.num.Sym.NumBlocks() }

// BlockOfColumn reports the coarse BTF block containing original column j —
// the index to use with the AffectedSolutionBlocks result — or -1 when j is
// out of range (matching AffectedSolutionBlocks, which skips out-of-range
// columns).
func (f *Factorization) BlockOfColumn(j int) int {
	return f.ts.BlockOfColumn(j)
}

// AffectedSolutionBlocks reports, per coarse BTF block, whether the block's
// solution component can change when the listed columns' values change: the
// blocks whose factors the change set dirties plus everything upstream of
// them through the coupling structure (the reachability closure of the
// graph of off-block couplings between BTF blocks). Blocks
// reported false produce bit-for-bit identical solution components for the
// same right-hand side, so callers running incremental refactorization can
// reuse per-block solution work across steps.
func (f *Factorization) AffectedSolutionBlocks(changedCols []int) []bool {
	return f.ts.SolutionClosure(changedCols)
}

// RefineResult reports what an iterative-refinement solve achieved:
// correction steps taken, the final Oettli–Prager componentwise backward
// error, the ∞-norm residual, and whether refinement converged to working
// precision or stagnated (a stagnating refinement is the reliable symptom
// of a factorization too inaccurate to help — check Health).
type RefineResult = trisolve.RefineResult

// RefineTol is the componentwise backward-error target refinement drives
// toward: a small multiple of the double-precision unit roundoff.
const RefineTol = trisolve.RefineTol

// SolveRefined solves A·x = b with convergent iterative refinement: after
// the direct solve, correction steps x += A⁻¹(b − A·x) run until the
// componentwise backward error reaches RefineTol, a step stops making
// progress, or maxIters corrections have been applied — useful when the
// KLU-style pivot tolerance traded stability for sparsity. a must be the
// matrix that was factored (or refactored). b is overwritten with x. Like
// Solve, it is reentrant and draws all scratch from the workspace pool.
func (f *Factorization) SolveRefined(a *Matrix, b []float64, maxIters int) (RefineResult, error) {
	if err := f.refineChecks(a, b); err != nil {
		return RefineResult{}, err
	}
	res, err := f.ts.SolveRefined(a, b, maxIters)
	return res, wrapErr(err)
}

// refineChecks is the always-on O(1) screen of SolveRefined and
// SolveRefinedCtx: a nil matrix, and a matrix or right-hand side whose
// dimensions do not match the factorization.
func (f *Factorization) refineChecks(a *Matrix, b []float64) error {
	if err := checkMatrix(a); err != nil {
		return err
	}
	n := f.num.Sym.N
	if a.M != n || a.N != n {
		return fmt.Errorf("%w: matrix is %d×%d, factorization is %d×%d", ErrDimensionMismatch, a.M, a.N, n, n)
	}
	if len(b) != n {
		return fmt.Errorf("%w: len(b) = %d, want %d", ErrDimensionMismatch, len(b), n)
	}
	return nil
}

// SolveRefinedCtx is SolveRefined with cooperative cancellation between
// refinement iterations: when ctx fires, refinement stops, b holds the
// best iterate computed so far, and the returned RefineResult describes it
// with Canceled set alongside ErrCanceled or ErrDeadlineExceeded.
func (f *Factorization) SolveRefinedCtx(ctx context.Context, a *Matrix, b []float64, maxIters int) (RefineResult, error) {
	if err := f.refineChecks(a, b); err != nil {
		return RefineResult{}, err
	}
	res, err := f.ts.SolveRefinedCtx(ctx, a, b, maxIters)
	return res, wrapErr(err)
}

// Health reports the numerical condition of a factorization: how much the
// computed factors can be trusted, independent of any particular right-hand
// side. Obtain one with Factorization.Health.
type Health struct {
	// Rcond is a Hager/Higham estimate of the reciprocal 1-norm condition
	// number 1/(‖A‖₁·‖A⁻¹‖₁) ∈ [0, 1]; values near zero flag an
	// ill-conditioned system whose solutions may carry few correct digits.
	Rcond float64
	// RecipPivotGrowth is max|A|/max|U| clamped to [0, 1] — the classic
	// cheap stability diagnostic; tiny values mean element growth ate the
	// factorization's accuracy and a tighter pivot tolerance is warranted.
	RecipPivotGrowth float64
	// Finite is false when any stored factor value is NaN or Inf.
	Finite bool
	// Poisoned mirrors Stats.Poisoned: the last refresh failed and the
	// numeric values are unspecified until a successful Factor/Refactor.
	Poisoned bool
	// InternalPanics mirrors Stats.InternalPanics.
	InternalPanics int64
}

// Health computes the factorization's numerical health report. The Rcond
// estimate costs a handful of solve sweeps (it is skipped, reported as 0,
// when the factorization is poisoned or non-finite); everything else is a
// cheap scan of the stored factors.
func (f *Factorization) Health() Health {
	h := Health{
		Poisoned:       f.num.Poisoned(),
		InternalPanics: f.num.Panics(),
	}
	if h.Poisoned {
		return h
	}
	h.Finite = f.num.Finite()
	h.RecipPivotGrowth = f.num.RecipPivotGrowth()
	if h.Finite {
		h.Rcond = f.num.EstimateRcond()
	}
	return h
}

// RcondAdvisory is the reciprocal-condition threshold below which
// Factorization.Check reports ErrIllConditioned: roughly the point where a
// double-precision solve can lose all significant digits.
const RcondAdvisory = 1e-14

// Check runs the health report and converts it to a verdict: nil when the
// factorization looks trustworthy, ErrInternalPanic when it is poisoned,
// ErrNotFinite when factor values overflowed, and the advisory
// ErrIllConditioned when the condition estimate or pivot growth suggests
// solutions need iterative refinement (SolveRefined) to be trusted.
func (f *Factorization) Check() error {
	h := f.Health()
	switch {
	case h.Poisoned:
		return fmt.Errorf("%w: factorization is poisoned; refresh with Factor or RefactorRobust", ErrInternalPanic)
	case !h.Finite:
		return fmt.Errorf("%w: factor values are NaN or Inf", ErrNotFinite)
	case h.Rcond < RcondAdvisory:
		return fmt.Errorf("%w: rcond estimate %.3g, reciprocal pivot growth %.3g", ErrIllConditioned, h.Rcond, h.RecipPivotGrowth)
	}
	return nil
}

// Stats summarizes a factorization (the paper's Table I statistics).
type Stats struct {
	// NnzLU is |L+U|, counting each factor's diagonal once.
	NnzLU int
	// FillDensity is |L+U| / |A| (can be below 1 with BTF).
	FillDensity float64
	// BTFBlocks is the number of coarse BTF diagonal blocks.
	BTFBlocks int
	// BTFPercent is the share of rows in small BTF blocks.
	BTFPercent float64
	// NDBlocks counts coarse blocks factored by the parallel ND engine.
	NDBlocks int
	// DenseKernels counts the fine-ND kernels statically tagged for the
	// dense panel layer at analysis time; DenseKernelHits counts the kernel
	// executions actually routed through it during the last numeric sweep.
	DenseKernels    int
	DenseKernelHits int64
	// Supernodes counts the wide (two or more column) supernodes the
	// analysis detected in fine-ND leaf diagonals; SupernodeHits counts the
	// leaf-diagonal factorizations or refreshes the last numeric sweep
	// actually ran through the supernodal panel path.
	Supernodes    int
	SupernodeHits int64
	// PivotFallbacks counts per-block fresh-pivot fallbacks refresh sweeps
	// have taken over this factorization's lifetime (reused pivot
	// sequences defeated by value drift).
	PivotFallbacks int64
	// DirtyBlocks is how many coarse blocks the most recent incremental
	// refresh (RefactorPartial/RefactorAuto) reworked; DirtyBlocksTotal
	// accumulates across all incremental calls.
	DirtyBlocks      int
	DirtyBlocksTotal int64
	// SyncWaits counts contended point-to-point waits of the last numeric
	// sweep; SyncWaitSeconds is the wall-clock time those blocked waits
	// cost, summed over workers — the paper's sync-overhead measurement,
	// available even without tracing.
	SyncWaits       int64
	SyncWaitSeconds float64
	// Poisoned reports that the last refresh failed, leaving the numeric
	// values unspecified: solves must wait for a successful Factor/Refactor.
	Poisoned bool
	// InternalPanics counts worker panics the sweeps of this factorization
	// have recovered over its lifetime (zero in healthy operation).
	InternalPanics int64
}

// Stats reports factorization statistics relative to the matrix a that was
// factored. |L+U| is cached on the numeric object at factorization time,
// so this is O(1). A nil a reports FillDensity 0.
func (f *Factorization) Stats(a *Matrix) Stats {
	fill := 0.0
	if a != nil {
		fill = f.num.FillDensity(a)
	}
	return Stats{
		NnzLU:            f.num.NnzLU(),
		FillDensity:      fill,
		BTFBlocks:        f.num.Sym.NumBlocks(),
		BTFPercent:       f.num.Sym.BTFPercent,
		NDBlocks:         f.num.Sym.NumNDBlocks(),
		DenseKernels:     f.num.Sym.DenseKernels(),
		DenseKernelHits:  f.num.DenseKernelHits(),
		Supernodes:       f.num.Sym.Supernodes(),
		SupernodeHits:    f.num.SupernodeHits(),
		PivotFallbacks:   f.num.PivotFallbacks(),
		DirtyBlocks:      f.num.LastDirtyBlocks(),
		DirtyBlocksTotal: f.num.DirtyBlocksTotal(),
		SyncWaits:        f.num.SyncWaits,
		SyncWaitSeconds:  f.num.SyncWaitSeconds(),
		Poisoned:         f.num.Poisoned(),
		InternalPanics:   f.num.Panics(),
	}
}

func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrInternalPanic) {
		return errors.Join(ErrInternalPanic, err)
	}
	if errors.Is(err, gp.ErrSingular) || errors.Is(err, matching.ErrStructurallySingular) {
		return errors.Join(ErrSingular, err)
	}
	return err
}
