package basker

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/matgen"
)

// TestFaultTypedErrorsDimensions pins the always-on O(1) dimension checks:
// non-square factor targets and wrong-length right-hand sides must report
// ErrDimensionMismatch from every solve entry point.
func TestFaultTypedErrorsDimensions(t *testing.T) {
	// Non-square matrix.
	tr := NewTriplets(3, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	rect := tr.Matrix()
	if _, err := New(Options{}).Factor(rect); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("Factor of 3×2 matrix reported %v, want ErrDimensionMismatch", err)
	}

	a := matgen.Circuit(matgen.CircuitParams{N: 120, BTFPct: 40, Blocks: 8, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 5})
	f, err := New(Options{Threads: 2}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}

	short := make([]float64, a.N-1)
	if err := f.Solve(short); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("Solve with short RHS reported %v, want ErrDimensionMismatch", err)
	}
	long := make([]float64, a.N+3)
	if err := f.Solve(long); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("Solve with long RHS reported %v, want ErrDimensionMismatch", err)
	}
	batch := [][]float64{make([]float64, a.N), make([]float64, a.N-2)}
	if err := f.SolveMany(batch); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("SolveMany with one bad RHS reported %v, want ErrDimensionMismatch", err)
	}
	if err := f.SolveMatrix(make([]float64, a.N*2-1), 2); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("SolveMatrix with short buffer reported %v, want ErrDimensionMismatch", err)
	}
	if _, err := f.SolveRefined(a, short, 2); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("SolveRefined with short RHS reported %v, want ErrDimensionMismatch", err)
	}
	if _, err := f.SolveRefined(rect, make([]float64, a.N), 2); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("SolveRefined with mismatched matrix reported %v, want ErrDimensionMismatch", err)
	}

	// Refactor family: mismatched dimensions are rejected before any sweep.
	if err := f.Refactor(rect); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("Refactor with 3×2 matrix reported %v, want ErrDimensionMismatch", err)
	}
	if err := f.RefactorAuto(rect); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("RefactorAuto with 3×2 matrix reported %v, want ErrDimensionMismatch", err)
	}
	if err := f.RefactorPartial(rect, []int{0}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("RefactorPartial with 3×2 matrix reported %v, want ErrDimensionMismatch", err)
	}

	// The rejected calls must not have damaged the factorization.
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	if err := f.Solve(b); err != nil {
		t.Fatalf("solve after rejected inputs: %v", err)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

// TestFaultTypedErrorsMalformed pins the ValidateInputs screen: broken CSC
// invariants report ErrBadInput, non-finite values report both ErrBadInput
// and ErrNotFinite, and the screen guards the Refactor family too.
func TestFaultTypedErrorsMalformed(t *testing.T) {
	s := New(Options{ValidateInputs: true})

	// Broken column pointers (non-monotone).
	bad := &Matrix{M: 2, N: 2, Colptr: []int{0, 2, 1}, Rowidx: []int{0, 1}, Values: []float64{1, 1}}
	if _, err := s.Factor(bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Factor of broken colptr reported %v, want ErrBadInput", err)
	}

	// Row index out of range.
	bad = &Matrix{M: 2, N: 2, Colptr: []int{0, 1, 2}, Rowidx: []int{0, 5}, Values: []float64{1, 1}}
	if _, err := s.Factor(bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Factor of out-of-range row reported %v, want ErrBadInput", err)
	}

	// Unsorted rows within a column.
	bad = &Matrix{M: 3, N: 3, Colptr: []int{0, 2, 3, 4}, Rowidx: []int{1, 0, 1, 2}, Values: []float64{1, 1, 1, 1}}
	if _, err := s.Factor(bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Factor of unsorted column reported %v, want ErrBadInput", err)
	}

	// NaN and Inf values: ErrNotFinite, still under the ErrBadInput family.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad = &Matrix{M: 2, N: 2, Colptr: []int{0, 1, 2}, Rowidx: []int{0, 1}, Values: []float64{1, v}}
		_, err := s.Factor(bad)
		if !errors.Is(err, ErrNotFinite) {
			t.Fatalf("Factor with value %v reported %v, want ErrNotFinite", v, err)
		}
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("Factor with value %v reported %v, want ErrBadInput in the chain", v, err)
		}
	}

	// Without the flag, the screen is off: the same NaN matrix factors (the
	// health layer, not the input screen, is then responsible for it).
	lax := New(Options{})
	nanMat := &Matrix{M: 2, N: 2, Colptr: []int{0, 1, 2}, Rowidx: []int{0, 1}, Values: []float64{1, math.NaN()}}
	if f, err := lax.Factor(nanMat); err == nil {
		if h := f.Health(); h.Finite {
			t.Fatal("NaN factor passed the health screen with ValidateInputs off")
		}
	}

	// Refactor family inherits the screen from the factorization's options.
	a := matgen.Circuit(matgen.CircuitParams{N: 100, BTFPct: 40, Blocks: 6, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 5})
	f, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := &Matrix{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx,
		Values: append([]float64(nil), a.Values...)}
	poisoned.Values[3] = math.Inf(-1)
	if err := f.Refactor(poisoned); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("Refactor with -Inf value reported %v, want ErrNotFinite", err)
	}
	if err := f.RefactorAuto(poisoned); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("RefactorAuto with -Inf value reported %v, want ErrNotFinite", err)
	}
}

// TestNilMatrixRejected pins the always-on nil screen: every entry point
// that takes a *Matrix reports ErrBadInput for a nil one instead of
// dereferencing it, with the validation screen off, and Stats reports a
// zero fill density.
func TestNilMatrixRejected(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{N: 80, BTFPct: 40, Blocks: 6, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 5})
	f, err := New(Options{}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pool, sharded := NewPool(PoolOptions{}), NewShardedPool(2, PoolOptions{})
	b := make([]float64, a.N)
	lease := func(_ *Lease, err error) error { return err }
	refine := func(_ RefineResult, err error) error { return err }
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Solver.Factor", func() error { _, err := New(Options{}).Factor(nil); return err }},
		{"Solver.FactorCtx", func() error { _, err := New(Options{}).FactorCtx(ctx, nil); return err }},
		{"Refactor", func() error { return f.Refactor(nil) }},
		{"RefactorCtx", func() error { return f.RefactorCtx(ctx, nil) }},
		{"RefactorPartial", func() error { return f.RefactorPartial(nil, []int{0}) }},
		{"RefactorPartialCtx", func() error { return f.RefactorPartialCtx(ctx, nil, []int{0}) }},
		{"RefactorAuto", func() error { return f.RefactorAuto(nil) }},
		{"RefactorAutoCtx", func() error { return f.RefactorAutoCtx(ctx, nil) }},
		{"RefactorRobust", func() error { return f.RefactorRobust(nil) }},
		{"SolveRefined", func() error { return refine(f.SolveRefined(nil, b, 2)) }},
		{"SolveRefinedCtx", func() error { return refine(f.SolveRefinedCtx(ctx, nil, b, 2)) }},
		{"Pool.Acquire", func() error { return lease(pool.Acquire(nil)) }},
		{"Pool.AcquireCtx", func() error { return lease(pool.AcquireCtx(ctx, nil)) }},
		{"Pool.Factor", func() error { return lease(pool.Factor(nil)) }},
		{"Pool.Solve", func() error { return pool.Solve(nil, b) }},
		{"Pool.SolveMany", func() error { return pool.SolveMany(nil, [][]float64{b}) }},
		{"ShardedPool.Acquire", func() error { return lease(sharded.Acquire(nil)) }},
		{"ShardedPool.AcquireCtx", func() error { return lease(sharded.AcquireCtx(ctx, nil)) }},
		{"ShardedPool.Factor", func() error { return lease(sharded.Factor(nil)) }},
		{"ShardedPool.Solve", func() error { return sharded.Solve(nil, b) }},
		{"ShardedPool.SolveMany", func() error { return sharded.SolveMany(nil, [][]float64{b}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(); !errors.Is(err, ErrBadInput) {
				t.Fatalf("nil matrix reported %v, want ErrBadInput", err)
			}
		})
	}
	if s := f.Stats(nil); s.FillDensity != 0 || s.NnzLU != f.Stats(a).NnzLU {
		t.Fatalf("Stats(nil) = %+v, want the factorization's counts with FillDensity 0", s)
	}
	// The rejected calls left the factorization usable.
	if err := f.Solve(b); err != nil {
		t.Fatalf("solve after rejected nil inputs: %v", err)
	}
}
