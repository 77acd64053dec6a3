package basker

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

func TestPublicAPIQuickstart(t *testing.T) {
	// 2x2: [[2,1],[1,3]] x = b.
	tr := NewTriplets(2, 2)
	tr.Add(0, 0, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(1, 1, 3)
	a := tr.Matrix()
	f, err := New(Options{}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{5, 10} // solution: x = [1, 3]
	f.Solve(b)
	if math.Abs(b[0]-1) > 1e-12 || math.Abs(b[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", b)
	}
}

func TestPublicAPICircuitParallel(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{N: 600, BTFPct: 50, Blocks: 30, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 42})
	f, err := New(Options{Threads: 4, BigBlockMin: 64}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	f.Solve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, b[i], x[i])
		}
	}
	st := f.Stats(a)
	if st.NnzLU <= 0 || st.BTFBlocks < 2 || st.FillDensity <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestPublicAPIRefactor(t *testing.T) {
	base := matgen.XyceSequenceBase(0.1)
	f, err := New(Options{Threads: 2, BigBlockMin: 64}).Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		m := matgen.TransientStep(base, step, 5)
		if err := f.Refactor(m); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rng := rand.New(rand.NewSource(int64(step)))
		x := make([]float64, m.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, m.N)
		m.MulVec(b, x)
		f.Solve(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				t.Fatalf("step %d: x[%d] = %v, want %v", step, i, b[i], x[i])
			}
		}
	}
}

func TestSingularErrorWrapped(t *testing.T) {
	tr := NewTriplets(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 0, 1) // empty column 1
	_, err := New(Options{}).Factor(tr.Matrix())
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestMatrixMarketRoundTripPublic(t *testing.T) {
	a := matgen.Mesh2D(6, 1)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != a.N || b.Nnz() != a.Nnz() {
		t.Fatal("round trip changed the matrix")
	}
}

func TestSolveRefined(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{N: 400, BTFPct: 30, Blocks: 20, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 9})
	f, err := New(Options{Threads: 2, BigBlockMin: 64, PivotTol: 0.0001}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	res, err := f.SolveRefined(a, b, 3)
	if err != nil {
		t.Fatalf("SolveRefined: %v", err)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("refined residual %g too large", res.Residual)
	}
	if !res.Converged {
		t.Errorf("refinement did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
			t.Fatalf("refined x[%d] = %v, want %v", i, b[i], x[i])
		}
	}
	// Zero iterations must still report the direct solve's backward error.
	a.MulVec(b, x)
	res, err = f.SolveRefined(a, b, 0)
	if err != nil {
		t.Fatalf("SolveRefined(0 iters): %v", err)
	}
	if res.Residual < 0 || res.BackwardError < 0 {
		t.Fatalf("negative residual/backward error: %+v", res)
	}
	if res.Iterations != 0 {
		t.Fatalf("maxIters=0 took %d corrections", res.Iterations)
	}
}
