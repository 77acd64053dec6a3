// Package core implements Basker, the paper's contribution: a threaded
// sparse LU factorization with hierarchical parallelism and hierarchical 2D
// data layouts.
//
// The solver composes two structural levels exactly as the paper describes:
//
//  1. a coarse block triangular form (BTF) over the whole matrix, found
//     from a maximum weight-cardinality matching plus strongly connected
//     components. Small diagonal blocks ("fine BTF structure", the paper's
//     D1/D3) are AMD-ordered and factored embarrassingly in parallel with
//     flop-balanced thread assignment (Algorithm 2);
//  2. each large diagonal block ("fine ND structure", the paper's D2) is
//     reordered by nested dissection into a 2D grid of sparse submatrices
//     mapped onto a binary dependency tree, and factored by the parallel
//     Gilbert–Peierls algorithm (Algorithms 3-4): multiple threads
//     cooperate on a single block column, synchronizing point-to-point
//     through atomic per-block flags (the paper's volatile-variable sync).
//
// Partial pivoting happens inside diagonal blocks only, which the
// fill-path theorem makes safe for the already-computed lower off-diagonal
// structure, as the paper notes.
package core

import (
	"time"

	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/trace"
)

// Options configures a Basker solver.
type Options struct {
	// Threads is the worker count. The fine-ND engine uses the largest
	// power of two not exceeding it (the paper's Basker requires a power
	// of two); remaining threads still help on fine-BTF blocks.
	Threads int
	// UseBTF enables the coarse block triangular form.
	UseBTF bool
	// UseMWCM selects the bottleneck weighted matching for zero-free
	// diagonals (the paper's Pm1/Pm2); otherwise cardinality matching.
	UseMWCM bool
	// PivotTol is the Gilbert–Peierls diagonal-preference tolerance used
	// inside every diagonal block.
	PivotTol float64
	// BigBlockMin is the smallest BTF diagonal block handled by the
	// fine-ND structure; smaller blocks go to the fine-BTF engine.
	BigBlockMin int
	// LocalAMD applies an AMD ordering inside each ND diagonal block
	// (leaves and separators) to cut fill within the 2D blocks.
	LocalAMD bool
	// NoPrune disables Eisenstat–Liu symmetric pruning inside every
	// Gilbert–Peierls kernel (see gp.Options.NoPrune). Like the four fields
	// below it is test-only: the public API never sets it.
	NoPrune bool

	// DenseKernelThreshold, NoDenseKernels, SupernodeRelax and NoSupernodes
	// are not product options: the public API sets none of them, and no
	// command does either. They exist only as the sparse-column reference
	// arm of this package's equivalence tests
	// (TestDenseKernelEquivalenceSuite, TestSupernodeAblationParity,
	// FuzzFactorSolve).
	//
	// DenseKernelThreshold is the estimated block density (from the fine-ND
	// symbolic estimates, Algorithm 3) at or above which a 2D kernel is
	// routed through the dense panel layer at numeric time. 0 selects
	// DefaultDenseKernelThreshold; values above 1 never trigger (only the
	// density estimate's clamp reaches exactly 1).
	DenseKernelThreshold float64
	// NoDenseKernels keeps every fine-ND kernel on the sparse
	// Gilbert–Peierls path regardless of the density estimates.
	NoDenseKernels bool
	// SupernodeRelax is the relaxed-amalgamation bound for supernode
	// detection in fine-ND leaf diagonals: the largest column run merged
	// into one panel when the run is not a pure elimination-tree chain
	// (SuperLU's relaxation parameter). 0 selects DefaultSupernodeRelax.
	SupernodeRelax int
	// NoSupernodes turns supernode detection off: moderate-density leaf
	// diagonals factor column at a time.
	NoSupernodes bool
	// Trace, when non-nil, receives per-kernel scheduler events from every
	// sweep (analyze, factor, refactor, partial refactor, parallel solve).
	// nil keeps every hot path on its untraced, allocation-free fast path.
	Trace *trace.Recorder
	// ValidateInputs enables the full API-boundary input screen (structural
	// CSC invariants plus NaN/Inf finiteness) on Factor/Refactor entry
	// points. O(1) dimension checks are always on; this gate covers the
	// O(nnz) passes.
	ValidateInputs bool
	// Inject, when non-nil, arms the deterministic fault-injection points
	// inside every numeric sweep (chaos testing only). nil — the production
	// state — keeps every hook on its single-pointer-test fast path.
	Inject *faultinject.Injector
	// StallTimeout arms the per-sweep stall watchdog: a parallel sweep that
	// makes no progress (no completion signal lands) for this long is
	// aborted with ErrStalled, naming the stalled block and worker lane.
	// 0 (the default) disables the watchdog. Serial sweeps run on the
	// caller's goroutine and cannot be unwound by the watchdog.
	StallTimeout time.Duration

	// ctl and poll are the per-Numeric cancellation hooks, threaded through
	// sweepOpts into the fine-ND engine and its kernels (never set on the
	// shared Symbolic's Options).
	ctl  *SweepControl
	poll func() error
}

// DefaultDenseKernelThreshold is the estimated-density line above which
// fine-ND kernels switch to dense panels. Chosen by the threshold sweep
// recorded in README.md: the fill-heavy suite classes saturate their
// speedup well below it while the low-fill classes stay untagged above it.
const DefaultDenseKernelThreshold = 0.5

// DefaultSupernodeRelax is the relaxed-amalgamation bound used when
// Options.SupernodeRelax is 0 — SuperLU's traditional small-run setting.
const DefaultSupernodeRelax = 8

// DefaultOptions returns the paper-faithful defaults: BTF + MWCM on,
// KLU-style pivot tolerance.
func DefaultOptions() Options {
	return Options{
		Threads:     1,
		UseBTF:      true,
		UseMWCM:     true,
		PivotTol:    gp.DefaultPivotTol,
		BigBlockMin: 128,
		LocalAMD:    true,
	}
}

// gpOptions returns the Gilbert–Peierls kernel options used inside every
// diagonal block.
func (o Options) gpOptions() gp.Options {
	return gp.Options{PivotTol: o.PivotTol, NoPrune: o.NoPrune, Poll: o.poll}
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// ndLeaves returns the power-of-two leaf count for the ND tree.
func (o Options) ndLeaves() int {
	p := 1
	for p*2 <= o.threads() {
		p *= 2
	}
	return p
}

// supernodeRelax resolves the relaxed-amalgamation bound.
func (o Options) supernodeRelax() int {
	if o.SupernodeRelax <= 0 {
		return DefaultSupernodeRelax
	}
	return o.SupernodeRelax
}

// denseKernelThreshold resolves the dense-path density line.
func (o Options) denseKernelThreshold() float64 {
	if o.DenseKernelThreshold <= 0 {
		return DefaultDenseKernelThreshold
	}
	return o.DenseKernelThreshold
}

func (o Options) bigBlockMin() int {
	if o.BigBlockMin <= 0 {
		return 128
	}
	return o.BigBlockMin
}
