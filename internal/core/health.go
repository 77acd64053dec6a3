package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"repro/internal/gp"
	"repro/internal/sparse"
)

// ErrInternalPanic reports that a worker goroutine of a numeric sweep
// panicked. The panic is recovered, the numeric is poisoned (a subsequent
// full Factor/FactorInto/Refactor re-establishes a consistent state), and
// every completion slot the worker owned is force-released so sibling
// workers drain instead of deadlocking. The wrapped error carries the
// panic value and the captured stack.
var ErrInternalPanic = errors.New("core: internal panic in numeric sweep")

// panicError wraps a recovered panic value with ErrInternalPanic and the
// panicking goroutine's stack.
func panicError(r any) error {
	if e, ok := r.(error); ok {
		// Keep error-typed panic values in the chain so callers can match
		// them with errors.Is through the ErrInternalPanic wrapper.
		return fmt.Errorf("%w: %w\n%s", ErrInternalPanic, e, debug.Stack())
	}
	return fmt.Errorf("%w: %v\n%s", ErrInternalPanic, r, debug.Stack())
}

// notePanic records a worker panic for the sweep's error collection. The
// first panic wins (like the per-block error slots); the fail flag is also
// raised so not-yet-started blocks skip their work.
func (num *Numeric) notePanic(r any) {
	num.panics.Add(1)
	num.failed.Store(true)
	err := panicError(r)
	num.panicMu.Lock()
	if num.panicErr == nil {
		num.panicErr = err
	}
	num.panicMu.Unlock()
}

// takePanicErr returns and clears the recorded worker-panic error.
func (num *Numeric) takePanicErr() error {
	num.panicMu.Lock()
	err := num.panicErr
	num.panicErr = nil
	num.panicMu.Unlock()
	return err
}

// recoverRelease converts a fine-ND lane's panic into a recorded sweep
// error and force-releases the completion slot of its block (a dealing
// worker does the same for the rest of its run and every run left on the
// cursor). EpochSignals.Set is an idempotent epoch store, so a slot already
// signalled is unaffected — the driver's point-to-point join still waits for
// true quiescence of every sibling instead of deadlocking or returning while
// workers race on shared per-worker state. Must be called via defer.
func (num *Numeric) recoverRelease(blk int) {
	if r := recover(); r != nil {
		num.notePanic(r)
		num.sig.Set(blk)
	}
}

// recoverSerial is the panic isolation of the caller's own goroutine (the
// gather, the marking phase, the driver): sweep lanes recover themselves,
// everything else an entry point runs is covered by deferring this. The
// recovered panic poisons the numeric and becomes the call's error.
func (num *Numeric) recoverSerial(err *error) {
	if r := recover(); r != nil {
		num.notePanic(r)
		num.incPoisoned = true
		*err = num.takePanicErr()
	}
}

// Poisoned reports whether the last numeric sweep failed (error or panic),
// leaving the resident values unspecified: the factorization must not be
// solved with until a full FactorInto/Refactor succeeds. Any successful
// refresh clears it.
func (num *Numeric) Poisoned() bool { return num.incPoisoned }

// Panics reports how many worker panics this Numeric's sweeps have
// recovered over its lifetime.
func (num *Numeric) Panics() int64 { return num.panics.Load() }

// Norm1 reports ‖A‖₁ (the maximum column absolute sum) of the factored
// matrix, computed from the permuted copy — permutations preserve column
// sums up to reordering, so no input matrix is needed.
func (num *Numeric) Norm1() float64 {
	perm := num.Perm
	norm := 0.0
	for j := 0; j < perm.N; j++ {
		s := 0.0
		for p := perm.Colptr[j]; p < perm.Colptr[j+1]; p++ {
			v := perm.Values[p]
			if v < 0 {
				v = -v
			}
			s += v
		}
		if s > norm {
			norm = s
		}
	}
	return norm
}

// MaxAbsU reports the largest absolute value across every U factor of the
// block hierarchy (fine-BTF diagonal factors, fine-ND diagonal factors and
// their upper coupling blocks) — the growth side of the reciprocal
// pivot-growth diagnostic. O(nnz U), off the factorization hot path.
func (num *Numeric) MaxAbsU() float64 {
	m := 0.0
	for _, f := range num.small {
		if f != nil {
			if v := f.MaxAbsU(); v > m {
				m = v
			}
		}
	}
	for _, ndn := range num.nd {
		if ndn != nil {
			if v := ndn.maxAbsU(); v > m {
				m = v
			}
		}
	}
	return m
}

// RecipPivotGrowth reports max|A| / max|U|, clamped to [0, 1] — the
// coarse-grained reciprocal pivot growth factor. Values near 1 mean the
// elimination amplified nothing; values near 0 mean U grew enormously
// relative to A and the factorization is numerically suspect (the usual
// symptom of a too-permissive pivot tolerance).
func (num *Numeric) RecipPivotGrowth() float64 {
	maxU := num.MaxAbsU()
	if maxU == 0 {
		return 0
	}
	g := num.Perm.MaxAbs() / maxU
	if g > 1 {
		g = 1
	}
	return g
}

// Finite reports whether every resident factor value (and every permuted
// input value) is finite — the post-factorization NaN/Inf screen of the
// health layer. One linear pass over factor storage.
func (num *Numeric) Finite() bool {
	if !finiteVals(num.Perm.Values[:num.Perm.Nnz()]) {
		return false
	}
	for _, f := range num.small {
		if f != nil && !finiteFactors(f) {
			return false
		}
	}
	for _, ndn := range num.nd {
		if ndn != nil && !ndn.finite() {
			return false
		}
	}
	return true
}

// nan is the poison value of the KernelNaN injection point.
func nan() float64 { return math.NaN() }

// poisonColumnRange plants a NaN in the first stored entry of the first
// non-empty column in [c0, c1) — the KernelNaN injection for block-ranged
// storage (fine-ND blocks gather straight from Perm).
func poisonColumnRange(a *sparse.CSC, c0, c1 int) {
	for j := c0; j < c1; j++ {
		if p := a.Colptr[j]; p < a.Colptr[j+1] {
			a.Values[p] = nan()
			return
		}
	}
}

func finiteVals(vals []float64) bool {
	for _, v := range vals {
		if v != v || v-v != 0 {
			return false
		}
	}
	return true
}

func finiteFactors(f *gp.Factors) bool {
	return finiteVals(f.L.Values[:f.L.Nnz()]) && finiteVals(f.U.Values[:f.U.Nnz()])
}

// SolveTransposeInto solves Aᵀ x = rhs in place with the caller's work
// vector y of length n: SolveInto run backwards. With Perm = R A Cᵀ and
// every diagonal block factored as Pₖ Bₖ = Lₖ Uₖ, Aᵀ x = rhs is a block
// forward substitution over Permᵀ. rhs is packed through ColPerm; each block,
// first to last, pulls the off-block couplings of its columns from the
// solved earlier blocks (pivot-order rows, through offPtr and offRow), then
// runs Uₖᵀ and Lₖᵀ in place, which leaves its solution in its pivot order;
// the result is unpacked through rowPos. This is the A⁻ᵀ application the
// Hager/Higham condition estimator drives; it mirrors SolveInto's contracts
// (no allocation, safe for concurrent use with private y, not concurrently
// with Refactor).
func (num *Numeric) SolveTransposeInto(rhs, y []float64) {
	sym, offPtr, offRow := num.Sym, num.Sym.plan.offPtr, num.offRow
	pp, px := num.Perm.Colptr, num.Perm.Values
	y = y[:len(sym.ColPerm)]
	for k, j := range sym.ColPerm {
		y[k] = rhs[j]
	}
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		for c := r0; c < r1; c++ {
			rows := offRow[offPtr[c]:offPtr[c+1]]
			vals := px[pp[c]:]
			vals = vals[:len(rows)]
			s := 0.0
			for q, i := range rows {
				s += float64(vals[q] * y[i])
			}
			y[c] -= s
		}
		switch sym.kind[blk] {
		case blockSmall:
			num.small[blk].USolveT(y[r0:r1])
			num.small[blk].LSolveT(y[r0:r1])
		case blockND:
			num.nd[blk].ndSolveT(y[r0:r1])
		}
	}
	rhs = rhs[:len(num.rowPos)]
	for i, p := range num.rowPos {
		rhs[i] = y[p]
	}
}

// rcondMaxIter caps the Hager/Higham power iteration; the estimate almost
// always converges in 2–3 steps (Higham 1988).
const rcondMaxIter = 5

// EstimateRcond estimates the reciprocal 1-norm condition number
// 1/κ₁(A) = 1/(‖A‖₁·‖A⁻¹‖₁) of the factored matrix, with ‖A⁻¹‖₁ estimated
// by the Hager/Higham power iteration on the dual norm — each step is one
// solve and one transpose solve through the existing factors, so the cost
// is a handful of solves, never a dense inverse. The final alternating-sign
// safeguard vector guards against the iteration's rare underestimates.
// Returns 0 for an exactly singular or empty estimate. This is a cold
// diagnostic path and allocates its own scratch.
func (num *Numeric) EstimateRcond() float64 {
	n := num.Sym.N
	if n == 0 {
		return 1
	}
	norm := num.Norm1()
	if norm == 0 {
		return 0
	}
	b := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)

	for i := range x {
		x[i] = 1 / float64(n)
	}
	est := 0.0
	for iter := 0; iter < rcondMaxIter; iter++ {
		// w = A⁻¹ x ; est = ‖w‖₁.
		copy(b, x)
		num.SolveInto(b, y)
		cur := 0.0
		for _, v := range b {
			cur += math.Abs(v)
		}
		if iter > 0 && cur <= est {
			break // the iteration stopped improving
		}
		est = cur
		// z = A⁻ᵀ sign(w).
		for i, v := range b {
			if math.Signbit(v) {
				b[i] = -1
			} else {
				b[i] = 1
			}
		}
		num.SolveTransposeInto(b, y)
		// Converged when ‖z‖∞ ≤ zᵀx; otherwise steepest-ascent to e_jmax.
		zmax, jmax, zdotx := 0.0, 0, 0.0
		for i, v := range b {
			zdotx += float64(v * x[i])
			if a := math.Abs(v); a > zmax {
				zmax, jmax = a, i
			}
		}
		if zmax <= zdotx {
			break
		}
		for i := range x {
			x[i] = 0
		}
		x[jmax] = 1
	}
	// Safeguard: an alternating-sign probe with growing magnitude catches
	// adversarial cases where the power iteration underestimates badly.
	den := float64(n - 1)
	if n == 1 {
		den = 1
	}
	for i := range b {
		v := 1 + float64(i)/den
		if i%2 == 1 {
			v = -v
		}
		b[i] = v
	}
	num.SolveInto(b, y)
	alt := 0.0
	for _, v := range b {
		alt += math.Abs(v)
	}
	if alt = 2 * alt / (3 * float64(n)); alt > est {
		est = alt
	}
	if est == 0 || math.IsNaN(est) || math.IsInf(est, 0) {
		return 0
	}
	rcond := 1 / (norm * est)
	if math.IsNaN(rcond) || math.IsInf(rcond, 0) {
		return 0
	}
	return rcond
}

// sweepOpts returns the Options driving this numeric's sweeps, with the
// per-Numeric pivot-tolerance override applied when a recovery
// factorization tightened it (the Symbolic and its Options are shared
// across pooled factorizations and must never be mutated). The fine-ND
// engine derives its kernel options from it, the small blocks take its
// gpOptions.
func (num *Numeric) sweepOpts() Options {
	o := num.Sym.Opts
	if num.pivotTolOverride > 0 {
		o.PivotTol = num.pivotTolOverride
	}
	o.ctl = &num.sweep
	o.poll = num.gpPoll
	return o
}

// FactorIntoTol is FactorInto with a tightened pivot tolerance for this
// call only — the last rung of the graceful-degradation chain (a tolerance
// of 1 forces full partial pivoting, trading sparsity for stability when
// the default diagonal preference produced an unusable factorization).
// The override lives on the Numeric, never on the shared Symbolic.
func (num *Numeric) FactorIntoTol(a *sparse.CSC, tol float64) error {
	prev := num.pivotTolOverride
	num.pivotTolOverride = tol
	err := num.FactorInto(a)
	num.pivotTolOverride = prev
	return err
}
