// Package trisolve is the concurrent solve subsystem: the triangular
// solve phase of Basker, rebuilt for the workload the factorization
// engine was designed to feed. A transient circuit simulation performs
// one Factor and then thousands of Refactor/Solve calls, frequently for
// many right-hand sides and many concurrent scenarios, so this package
// provides
//
//   - reentrant solves: every per-call scratch buffer (the pivot-order
//     RHS, refinement residuals, the multi-RHS panel) lives in a
//     sync.Pool-backed Workspace, so any number of goroutines can solve
//     against one factorization with zero steady-state allocation;
//   - solves in pivot order: a right-hand side is permuted once on the way
//     in, through the numeric's composed row map core.Numeric.RowPos
//     (RowPerm and every diagonal block's row pivots), and once on the way
//     out, through ColPerm; every diagonal block is solved in place and the
//     couplings target pivot-order rows, so no block gathers through its
//     pivots or needs scratch;
//   - row-interleaved multi-RHS solves: SolveMany and SolveMatrix cut the
//     batch into panels of gp.PanelLanes (8) vectors and pack each panel
//     into one []gp.PanelRow, where row i of all eight vectors is a single
//     64-byte cache line: the pack streams the caller's vectors and writes
//     each row whole at its pivot position, the unpack reads each row
//     through the inverse of ColPerm, so a panel touches one random cache
//     line per row. The whole back-substitution then runs on that layout —
//     the small diagonal blocks, the fine-ND block's diagonal factors and
//     coupling blocks, and the coarse off-block columns each load a factor
//     entry once and apply it to eight contiguous lanes (the data layout
//     matched to the memory hierarchy, as the paper's 2D layout does for
//     the factorization). A column is skipped only when all eight lanes are
//     zero; a short tail repeats live vectors in the spare lanes, and a
//     one-vector panel is a plain solve;
//   - panel parallelism: the panels of a batch are dealt through an atomic
//     cursor to the lanes of core.Lanes, the engine's one joined launcher;
//     a lane's panic reaches the entry point's recover after the join and
//     becomes an error through core.PanicError, the wrapper the sweeps
//     use. A single right-hand side runs the serial pivot-order sweep on
//     the caller's goroutine, as KLU's solve does: the paper parallelizes
//     the factorization, and a dependency-scheduled block sweep measured
//     no faster than the serial one on any input.
//
// All entry points perform the same floating-point operation sequence per
// right-hand side as a serial core.Numeric.Solve, so batched, parallel and
// serial paths are interchangeable and golden-testable: every component
// compares == (in a panel a lane holding zero is updated with ±0 where the
// serial sweep skips, which for finite factors can change at most the sign
// of a zero).
package trisolve

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/sparse"
)

// Options configures a Solver.
type Options struct {
	// Workers is the number of goroutines the multi-RHS solves deal their
	// panels to. Values below 1 mean 1 (fully serial).
	Workers int
}

// Solver drives reentrant, batched and parallel solves against one
// core.Numeric. It is safe for concurrent use by multiple goroutines as
// long as no Refactor runs concurrently with solves; Refactor between
// solve batches is fine.
type Solver struct {
	num     *core.Numeric
	workers int
	pool    *wsPool
}

// New returns a Solver over num.
func New(num *core.Numeric, opt Options) *Solver {
	return &Solver{
		num:     num,
		workers: max(opt.Workers, 1),
		pool:    newWSPool(num.Sym),
	}
}

// Solve solves A·x = b in place with the serial pivot-order sweep of
// core.Numeric.SolveInto on the caller's goroutine. Reentrant and
// allocation-free in steady state. On a non-nil error (a recovered panic
// in the sweep) b is unspecified; the factorization itself is unharmed,
// solves are read-only against it.
func (s *Solver) Solve(b []float64) error {
	return s.SolveCtx(context.Background(), b)
}

// SolveCtx is Solve with a context check at entry: an already expired ctx
// returns ErrCanceled or ErrDeadlineExceeded with b untouched. The sweep
// itself is one uninterruptible pass of the serial solve.
func (s *Solver) SolveCtx(ctx context.Context, b []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = core.PanicError(r)
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		return core.CancelCause(ctx)
	}
	ws := s.pool.get()
	defer s.pool.put(ws)
	s.num.SolveInto(b, ws.y)
	return nil
}

// SolveMany solves A·xᵢ = bᵢ in place for every right-hand side. The batch
// is cut into panels of gp.PanelLanes vectors; each panel is packed into a
// row-interleaved buffer and runs one BTF sweep in which every factor entry
// is applied to all of its lanes, and panels are dealt to the worker
// goroutines. Per right-hand side the operation sequence is identical to
// Solve.
func (s *Solver) SolveMany(bs [][]float64) error {
	return s.SolveManyCtx(context.Background(), bs)
}

// SolveManyCtx is SolveMany with cooperative cancellation: workers stop
// picking up panels once ctx fires (or the stall watchdog trips) and the
// call returns the typed error with the batch partially solved. The sweep
// always joins fully before returning — workers write the caller-owned
// right-hand sides — so cancellation accelerates the unwind rather than
// abandoning stragglers.
func (s *Solver) SolveManyCtx(ctx context.Context, bs [][]float64) error {
	return s.solveBatch(ctx, rhsBatch{cols: bs, k: len(bs)})
}

// SolveMatrix solves the column-major n×nrhs system A·X = B in place:
// x holds nrhs right-hand sides of length n back to back. Panels are packed
// straight from x, so the call is as allocation-free as SolveMany.
func (s *Solver) SolveMatrix(x []float64, nrhs int) error {
	return s.solveBatch(context.Background(), rhsBatch{x: x, n: s.num.Sym.N, k: nrhs})
}

// rhsBatch names the k right-hand sides of one batched call: SolveMany's
// vectors, or (cols nil) the columns of SolveMatrix's column-major x.
type rhsBatch struct {
	cols [][]float64
	x    []float64
	n, k int
}

func (r *rhsBatch) col(c int) []float64 {
	if r.cols != nil {
		return r.cols[c]
	}
	return r.x[c*r.n : (c+1)*r.n]
}

// solveBatch cuts r into panels and solves them, serially on the caller's
// goroutine or dealt to the workers when there are several.
func (s *Solver) solveBatch(ctx context.Context, r rhsBatch) (err error) {
	if r.k == 0 {
		return nil
	}
	defer func() {
		if p := recover(); p != nil {
			err = core.PanicError(p)
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		return core.CancelCause(ctx)
	}
	npanels := (r.k + gp.PanelLanes - 1) / gp.PanelLanes
	nw := min(s.workers, npanels)
	if nw <= 1 {
		for c := 0; c < npanels; c++ {
			if ctx != nil && ctx.Err() != nil {
				return core.CancelCause(ctx)
			}
			s.solvePanel(&r, c*gp.PanelLanes)
		}
		return nil
	}
	return s.solveManyParallel(ctx, r, npanels, nw)
}

// solveManyParallel deals the panels to nw lanes (core.Lanes) through a
// shared atomic cursor. Kept out of solveBatch so the serial path stays
// allocation-free (the lane closure would otherwise force its captures
// onto the heap on every call). A panicking lane stops; the cursor lets
// the surviving lanes drain the remaining panels, so the join always
// quiesces, and the panic then reaches solveBatch's recover.
func (s *Solver) solveManyParallel(ctx context.Context, r rhsBatch, npanels, nw int) (err error) {
	inject := s.num.Sym.Opts.Inject
	// Armed batches borrow a pooled workspace purely for its cancellation
	// control; the unarmed fast path allocates and arms nothing.
	var ctl *core.SweepControl
	var mon *core.SweepMonitor
	if stall := s.num.Sym.Opts.StallTimeout; core.MonitorArmed(ctx, stall) {
		cws := s.pool.get()
		defer s.pool.put(cws)
		ctl = &cws.ctl
		ctl.BeginSweep(true)
		mon = core.StartSweepMonitor(core.MonitorSpec{
			Ctx: ctx, Stall: stall, Sweep: "solve", Ctl: ctl,
		})
		defer func() {
			if merr := mon.Stop(); merr != nil && err == nil {
				err = merr
			}
		}()
	}
	var next atomic.Int64
	core.Lanes(nw, func(w int) {
		inject.WorkerPanic(faultinject.SweepSolve, w)
		for {
			if ctl != nil && ctl.Canceled() {
				return
			}
			c := int(next.Add(1)) - 1
			if c >= npanels {
				return
			}
			s.solvePanel(&r, c*gp.PanelLanes)
			inject.StallPoint(faultinject.SweepSolve, c)
			if ctl != nil {
				ctl.Step()
			}
		}
	}, nil)
	return nil
}

// solvePanel solves right-hand sides lo..lo+gp.PanelLanes of r (fewer in
// the batch's tail) with a single pooled workspace: pack them into the
// row-interleaved panel in pivot order, run the core panel sweep, and
// unpack the solution. Both passes stream the caller's vectors in order and
// touch one 64-byte panel row per row: the pack writes row i of all eight
// vectors at its pivot position RowPos[i], the unpack reads the row of
// column j at ColPos[j].
func (s *Solver) solvePanel(r *rhsBatch, lo int) {
	ws := s.pool.get()
	defer s.pool.put(ws)
	n := s.num.Sym.N
	live := min(gp.PanelLanes, r.k-lo)
	if live == 1 {
		// A one-vector panel (k == 1, or a tail of one) is a plain solve.
		s.num.SolveInto(r.col(lo), ws.y)
		return
	}
	// Lanes past a short tail repeat live vectors; their results are dropped.
	var b [gp.PanelLanes][]float64
	for l := range b {
		b[l] = r.col(lo + l%live)
	}
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	b4, b5, b6, b7 := b[4][:n], b[5][:n], b[6][:n], b[7][:n]
	y := ws.panelBuf(n)
	for i, p := range s.num.RowPos()[:n] {
		row := &y[p]
		row[0], row[1], row[2], row[3] = b0[i], b1[i], b2[i], b3[i]
		row[4], row[5], row[6], row[7] = b4[i], b5[i], b6[i], b7[i]
	}
	s.num.SolvePanel(y)
	colPos := s.num.Sym.ColPos()[:n]
	if live < gp.PanelLanes {
		for j, k := range colPos {
			row := &y[k]
			for l, x := range b[:live] {
				x[j] = row[l]
			}
		}
		return
	}
	// A full panel, the common case, unpacks without the per-lane loop.
	for j, k := range colPos {
		row := &y[k]
		b0[j], b1[j], b2[j], b3[j] = row[0], row[1], row[2], row[3]
		b4[j], b5[j], b6[j], b7[j] = row[4], row[5], row[6], row[7]
	}
}

// RefineResult reports what an iterative-refinement solve achieved.
type RefineResult struct {
	// Iterations is the number of correction steps applied (the direct
	// solve is step zero and is not counted).
	Iterations int
	// BackwardError is the final Oettli–Prager componentwise relative
	// backward error ω = maxᵢ |b−Ax|ᵢ / (|A||x|+|b|)ᵢ: the size of the
	// smallest componentwise perturbation of A and b for which x is an
	// exact solution. At or below RefineTol, x is as good as the working
	// precision allows.
	BackwardError float64
	// Residual is the final ∞-norm residual ‖b−Ax‖∞ / ‖b‖∞ (the normwise
	// diagnostic the previous refinement API reported).
	Residual float64
	// Converged reports that BackwardError reached RefineTol.
	Converged bool
	// Stagnated reports that refinement stopped early because a step failed
	// to at least halve the backward error — the classic symptom of a
	// factorization too inaccurate for refinement to help (severe
	// ill-conditioning), at which point further solves only burn time.
	Stagnated bool
	// Canceled reports that a SolveRefinedCtx context fired between
	// refinement iterations: b holds the best iterate computed so far and
	// the result fields describe it, alongside the returned typed error.
	Canceled bool
}

// RefineTol is the componentwise backward-error target of SolveRefined:
// a small multiple of the double-precision unit roundoff, the level LAPACK
// refinement drives ω to.
const RefineTol = 4 * 2.220446049250313e-16

// SolveRefined solves A·x = b with convergent iterative refinement against
// the matrix a that was factored (or refactored): after the direct solve,
// correction steps x += A⁻¹(b − A·x) run until the Oettli–Prager
// componentwise backward error reaches RefineTol, a step fails to make
// progress (stagnation), or maxIters corrections have been applied. b is
// overwritten with x. All scratch comes from the workspace pool; the
// backward-error pass shares the residual's single sweep over a.
func (s *Solver) SolveRefined(a *sparse.CSC, b []float64, maxIters int) (RefineResult, error) {
	return s.SolveRefinedCtx(context.Background(), a, b, maxIters)
}

// SolveRefinedCtx is SolveRefined with cooperative cancellation between
// refinement iterations: when ctx fires, the method stops refining, leaves
// the best iterate computed so far in b, and returns the result describing
// it with Canceled set alongside ErrCanceled or ErrDeadlineExceeded.
func (s *Solver) SolveRefinedCtx(ctx context.Context, a *sparse.CSC, b []float64, maxIters int) (res RefineResult, err error) {
	ws := s.pool.get()
	defer s.pool.put(ws)
	defer func() {
		if r := recover(); r != nil {
			err = core.PanicError(r)
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		res.Canceled = true
		return res, core.CancelCause(ctx)
	}
	n := a.N
	r, rhs, den := ws.refine(n)
	copy(rhs, b)
	s.num.SolveInto(b, ws.y)
	scale := 0.0
	for _, v := range rhs {
		if v := math.Abs(v); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	prev := math.Inf(1)
	for it := 0; ; it++ {
		omega, resid := backwardError(a, b, rhs, r, den)
		res.Iterations = it
		res.BackwardError = omega
		res.Residual = resid / scale
		if omega <= RefineTol {
			res.Converged = true
			return res, nil
		}
		if it >= maxIters {
			return res, nil
		}
		if ctx != nil && ctx.Err() != nil {
			// b already holds the iterate the result fields describe.
			res.Canceled = true
			return res, core.CancelCause(ctx)
		}
		if omega > 0.5*prev {
			// The last correction did not at least halve ω: stagnation.
			res.Stagnated = true
			return res, nil
		}
		prev = omega
		s.num.SolveInto(r, ws.y)
		for i := range b {
			b[i] += r[i]
		}
	}
}

// backwardError computes, in one pass over a's columns, the residual
// r = rhs − A·x and the Oettli–Prager denominator den = |A|·|x| + |rhs|,
// returning the componentwise backward error ω = maxᵢ |r|ᵢ/denᵢ (rows with
// a zero denominator and a nonzero residual yield +Inf) and the plain
// residual ∞-norm.
func backwardError(a *sparse.CSC, x, rhs, r, den []float64) (omega, resid float64) {
	for i := range r {
		r[i] = rhs[i]
		den[i] = math.Abs(rhs[i])
	}
	for j := 0; j < a.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		axj := math.Abs(xj)
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			v := a.Values[p]
			r[i] -= float64(v * xj)
			den[i] += float64(math.Abs(v) * axj)
		}
	}
	for i := range r {
		ri := math.Abs(r[i])
		if ri > resid {
			resid = ri
		}
		switch {
		case den[i] > 0:
			if w := ri / den[i]; w > omega {
				omega = w
			}
		case ri != 0:
			omega = math.Inf(1)
		}
	}
	return omega, resid
}
