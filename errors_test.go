package basker

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestFaultTypedErrorsDimensions pins the always-on O(1) dimension checks:
// non-square factor targets (Solver and Pool, with and without
// ValidateInputs) and wrong-length right-hand sides must report
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
	for _, validate := range []bool{false, true} {
		p := NewPool(PoolOptions{Options: Options{ValidateInputs: validate}})
		if _, err := p.Acquire(rect); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("Pool.Acquire of 3×2 matrix (ValidateInputs %v) reported %v, want ErrDimensionMismatch", validate, err)
		}
		if _, err := p.Factor(rect); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("Pool.Factor of 3×2 matrix (ValidateInputs %v) reported %v, want ErrDimensionMismatch", validate, err)
		}
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

	// An interior column pointer past nnz: rejected before any row read.
	bad = &Matrix{M: 2, N: 2, Colptr: []int{0, 5, 2}, Rowidx: []int{0, 1}, Values: []float64{1, 1}}
	if _, err := s.Factor(bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Factor of colptr past nnz reported %v, want ErrBadInput", err)
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
	if err := f.RefactorPartial(poisoned, []int{0}); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("RefactorPartial with -Inf value reported %v, want ErrNotFinite", err)
	}
}

// TestNilMatrixRejected pins the always-on O(1) screen: every entry point
// that takes a *Matrix reports ErrBadInput for a nil one, one with negative
// dimensions, or one whose Values, Rowidx or Colptr is shorter than its
// column pointers declare, instead of dereferencing or slicing it, with the
// validation screen off; the rejected calls leave the factorization
// healthy, and Stats reports a zero fill density.
func TestNilMatrixRejected(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{N: 80, BTFPct: 40, Blocks: 6, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 5})
	f, err := New(Options{}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pool := NewPool(PoolOptions{})
	b := make([]float64, a.N)
	nnz := a.Nnz()
	// Each short slice keeps its capacity, so a read past its length would
	// not panic but see stale memory.
	short := map[string]*Matrix{
		"Values": {M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: a.Values[:nnz-4]},
		"Rowidx": {M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx[:nnz-3], Values: a.Values},
		"Colptr": {M: a.M, N: a.N, Colptr: a.Colptr[:a.N], Rowidx: a.Rowidx, Values: a.Values},
	}
	// Warm the pool, so the short matrices also meet a cached entry.
	l, err := pool.Acquire(a)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	lease := func(_ *Lease, err error) error { return err }
	refine := func(_ RefineResult, err error) error { return err }
	for _, c := range []struct {
		name string
		call func(*Matrix) error
	}{
		{"Solver.Factor", func(m *Matrix) error { _, err := New(Options{}).Factor(m); return err }},
		{"Solver.FactorCtx", func(m *Matrix) error { _, err := New(Options{}).FactorCtx(ctx, m); return err }},
		{"Refactor", func(m *Matrix) error { return f.Refactor(m) }},
		{"RefactorCtx", func(m *Matrix) error { return f.RefactorCtx(ctx, m) }},
		{"RefactorPartial", func(m *Matrix) error { return f.RefactorPartial(m, []int{0}) }},
		{"RefactorPartialCtx", func(m *Matrix) error { return f.RefactorPartialCtx(ctx, m, []int{0}) }},
		{"RefactorAuto", func(m *Matrix) error { return f.RefactorAuto(m) }},
		{"SolveRefined", func(m *Matrix) error { return refine(f.SolveRefined(m, b, 2)) }},
		{"SolveRefinedCtx", func(m *Matrix) error { return refine(f.SolveRefinedCtx(ctx, m, b, 2)) }},
		{"Pool.Acquire", func(m *Matrix) error { return lease(pool.Acquire(m)) }},
		{"Pool.AcquireCtx", func(m *Matrix) error { return lease(pool.AcquireCtx(ctx, m)) }},
		{"Pool.Factor", func(m *Matrix) error { return lease(pool.Factor(m)) }},
		{"Pool.Solve", func(m *Matrix) error { return pool.Solve(m, b) }},
		{"Pool.SolveMany", func(m *Matrix) error { return pool.SolveMany(m, [][]float64{b}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(nil); !errors.Is(err, ErrBadInput) {
				t.Fatalf("nil matrix reported %v, want ErrBadInput", err)
			}
			if err := c.call(&Matrix{M: -1, N: -1}); !errors.Is(err, ErrBadInput) {
				t.Fatalf("negative dimensions reported %v, want ErrBadInput", err)
			}
			for name, m := range short {
				if err := c.call(m); !errors.Is(err, ErrBadInput) {
					t.Fatalf("short %s reported %v, want ErrBadInput", name, err)
				}
				if err := f.Check(); err != nil {
					t.Fatalf("short %s left the factorization unhealthy: %v", name, err)
				}
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

// TestValidateInputCheckedMark pins the one-structural-pass contract of the
// validation screen: a context carrying sparse.WithCheckedInput skips
// CSC.Check (its caller ran it on this matrix) but not CheckFinite, and an
// unmarked or nil context runs both.
func TestValidateInputCheckedMark(t *testing.T) {
	unsorted := &Matrix{M: 2, N: 1, Colptr: []int{0, 2}, Rowidx: []int{1, 0}, Values: []float64{1, 2}}
	notFinite := &Matrix{M: 1, N: 1, Colptr: []int{0, 1}, Rowidx: []int{0}, Values: []float64{math.NaN()}}
	marked := sparse.WithCheckedInput(context.Background())
	for _, c := range []struct {
		name string
		ctx  context.Context
		a    *Matrix
		want error
	}{
		{"unmarked, unsorted", context.Background(), unsorted, ErrBadInput},
		{"nil, unsorted", nil, unsorted, ErrBadInput},
		{"marked, unsorted", marked, unsorted, nil},
		{"marked, not finite", marked, notFinite, ErrNotFinite},
		{"unmarked, not finite", context.Background(), notFinite, ErrNotFinite},
	} {
		err := validateInput(c.ctx, c.a, true)
		if (c.want == nil) != (err == nil) || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}
