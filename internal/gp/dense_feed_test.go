package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// denseishCSC builds an n×n matrix with the given fill fraction plus a
// dominant diagonal (so the diagonal-preference pivot rule is exercised on
// realistic separator-like blocks).
func denseishCSC(rng *rand.Rand, n int, fill float64, dominant bool) *sparse.CSC {
	coo := sparse.NewCOO(n, n, int(float64(n*n)*fill)+n)
	for i := 0; i < n; i++ {
		d := rng.NormFloat64()
		if dominant {
			d = 20 + rng.Float64()
		}
		coo.Add(i, i, d)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < fill {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSC(false)
}

// TestFactorDenseIntoMatchesSparse: the dense panel factorization must pick
// the same pivot sequence as the sparse kernel on diagonally dominant
// blocks (both prefer the natural pivot) and solve to equivalent residuals;
// its emitted factors must be structural fully dense with sorted columns,
// unit-diagonal-first L and pivot-last U — everything downstream assumes.
func TestFactorDenseIntoMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{5, 16, 33, 64} {
		a := denseishCSC(rng, n, 0.4, true)
		sp, err := Factor(a, 0, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		dn := &Factors{}
		if err := FactorDenseInto(dn, a, Options{}, NewWorkspace(n)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if sp.P[k] != dn.P[k] {
				t.Fatalf("n=%d: pivot %d differs: sparse %d dense %d", n, k, sp.P[k], dn.P[k])
			}
		}
		// Structural shape: L column k holds rows k..n-1 (unit diagonal
		// first), U column k rows 0..k (pivot last).
		for k := 0; k < n; k++ {
			if got := dn.L.Colptr[k+1] - dn.L.Colptr[k]; got != n-k {
				t.Fatalf("L column %d has %d entries, want %d", k, got, n-k)
			}
			if dn.L.Values[dn.L.Colptr[k]] != 1 || dn.L.Rowidx[dn.L.Colptr[k]] != k {
				t.Fatalf("L column %d missing leading unit diagonal", k)
			}
			if got := dn.U.Colptr[k+1] - dn.U.Colptr[k]; got != k+1 {
				t.Fatalf("U column %d has %d entries, want %d", k, got, k+1)
			}
			if dn.U.Rowidx[dn.U.Colptr[k+1]-1] != k {
				t.Fatalf("U column %d pivot not last", k)
			}
		}
		// Identical pivots + same math ⇒ equal values up to roundoff.
		b := make([]float64, n)
		x := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			x[i] = b[i]
		}
		sp.Solve(b)
		dn.Solve(x)
		for i := range b {
			if math.Abs(b[i]-x[i]) > 1e-9*(1+math.Abs(b[i])) {
				t.Fatalf("n=%d: solve diverges at %d: %v vs %v", n, i, b[i], x[i])
			}
		}
	}
}

// TestFactorDenseIntoPivots: with tol=1 (true partial pivoting) on a
// non-dominant matrix, L·U must still reconstruct P·A.
func TestFactorDenseIntoPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 24
	a := denseishCSC(rng, n, 0.6, false)
	f := &Factors{}
	if err := FactorDenseInto(f, a, Options{PivotTol: 1}, NewWorkspace(n)); err != nil {
		t.Fatal(err)
	}
	// Check L·U = A(P,:) column by column.
	for j := 0; j < n; j++ {
		col := make([]float64, n)
		for p := f.U.Colptr[j]; p < f.U.Colptr[j+1]; p++ {
			k := f.U.Rowidx[p]
			ukj := f.U.Values[p]
			for q := f.L.Colptr[k]; q < f.L.Colptr[k+1]; q++ {
				col[f.L.Rowidx[q]] += f.L.Values[q] * ukj
			}
		}
		for i := 0; i < n; i++ {
			if v := a.At(f.P[i], j); math.Abs(col[i]-v) > 1e-9*(1+math.Abs(v)) {
				t.Fatalf("P·A(%d,%d): LU gives %v, want %v", i, j, col[i], v)
			}
		}
	}
}

// TestFactorDenseIntoSingular: an all-zero column must report ErrSingular
// through the usual error chain (the pivot-drift fallbacks rely on it).
func TestFactorDenseIntoSingular(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 3)
	coo.Add(0, 0, 1)
	coo.Add(2, 2, 1)
	coo.Add(0, 1, 0) // structural entry, zero value
	f := &Factors{}
	err := FactorDenseInto(f, coo.ToCSC(false), Options{}, NewWorkspace(3))
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular in chain", err)
	}
}

// denseUpperFresh and denseLowerFresh build a dense coupling the way the
// fresh ND sweep does: the refresh kernel from column 0 over the shape
// FillDense gives a nil block.
func denseUpperFresh(f *Factors, b *sparse.CSC) *sparse.CSC {
	dst := sparse.FillDense(nil, f.N, b.N, nil)
	f.DenseUpperRefactor(dst, b)
	return dst
}

func denseLowerFresh(f *Factors, b *sparse.CSC) *sparse.CSC {
	dst := sparse.FillDense(nil, b.M, b.N, nil)
	f.DenseLowerRefactor(dst, b)
	return dst
}

// denseOf returns c as a dense column-major array of columns.
func denseOf(c *sparse.CSC) [][]float64 {
	d := make([][]float64, c.N)
	for j := range d {
		d[j] = make([]float64, c.M)
		for p := c.Colptr[j]; p < c.Colptr[j+1]; p++ {
			d[j][c.Rowidx[p]] = c.Values[p]
		}
	}
	return d
}

// checkBlockNear fails unless got, read densely, is within roundoff of the
// column-major want.
func checkBlockNear(t *testing.T, name string, got *sparse.CSC, want [][]float64) {
	t.Helper()
	g := denseOf(got)
	for c := range want {
		for i, w := range want[c] {
			if math.Abs(g[c][i]-w) > 1e-10*(1+math.Abs(w)) {
				t.Fatalf("%s col %d row %d: %v, dense reference %v", name, c, i, g[c][i], w)
			}
		}
	}
}

// checkSparseMatchesDense fails unless every entry of the sparse block
// carries the dense block's bits and every dense-only position is zero.
func checkSparseMatchesDense(t *testing.T, name string, sp, dn *sparse.CSC) {
	t.Helper()
	s, d := denseOf(sp), denseOf(dn)
	for c := range d {
		for i := range d[c] {
			if math.Float64bits(s[c][i]) != math.Float64bits(d[c][i]) && !(s[c][i] == 0 && d[c][i] == 0) {
				t.Fatalf("%s col %d row %d: sparse %v, dense %v", name, c, i, s[c][i], d[c][i])
			}
		}
	}
}

// TestDenseSolvesMatchSparseKernels: the dense TRSM kernels and the sparse
// off-diagonal kernels (pattern pass, then the refresh kernel from column
// 0) must both agree with an independent dense triangular solve, and with
// each other bit for bit on the sparse pattern (exact zeros on the
// dense-only positions).
func TestDenseSolvesMatchSparseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n, m := 32, 20
	a := denseishCSC(rng, n, 0.5, true)
	f := &Factors{}
	ws := NewWorkspace(n)
	if err := FactorDenseInto(f, a, Options{}, ws); err != nil {
		t.Fatal(err)
	}
	ld, ud := denseOf(f.L), denseOf(f.U)

	// Upper kernel: X = L⁻¹·P·B, by dense forward substitution.
	b := denseishCSC(rng, n, 0.2, false).ExtractBlock(0, n, 0, m)
	bd := denseOf(b)
	want := make([][]float64, m)
	for c := range want {
		y := make([]float64, n)
		for k := range y {
			y[k] = bd[c][f.P[k]]
		}
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				y[i] -= float64(ld[j][i] * y[j])
			}
		}
		want[c] = y
	}
	up := denseUpperFresh(f, b)
	checkBlockNear(t, "upper dense", up, want)
	sp := f.UpperBlockPattern(nil, b, ws)
	f.RefactorUpperBlock(sp, b, ws)
	checkBlockNear(t, "upper sparse", sp, want)
	checkSparseMatchesDense(t, "upper", sp, up)

	// Lower kernel: X·U = B, by dense column-by-column substitution.
	h := 17
	bl := denseishCSC(rng, n, 0.25, false).ExtractBlock(0, h, 0, n)
	bld := denseOf(bl)
	want = make([][]float64, n)
	for c := range want {
		x := append([]float64(nil), bld[c]...)
		for t := 0; t < c; t++ {
			for i := range x {
				x[i] -= float64(want[t][i] * ud[c][t])
			}
		}
		for i := range x {
			x[i] /= ud[c][c]
		}
		want[c] = x
	}
	dn := denseLowerFresh(f, bl)
	checkBlockNear(t, "lower dense", dn, want)
	sl := sparseLowerFresh(f, bl)
	checkBlockNear(t, "lower sparse", sl, want)
	checkSparseMatchesDense(t, "lower", sl, dn)
}

// sparseLowerFresh builds the sparse lower coupling X·U = B the way the
// fresh ND sweep does: the union pattern, then RefactorLowerBlock.
func sparseLowerFresh(f *Factors, b *sparse.CSC) *sparse.CSC {
	x := f.lowerPatternRef(b)
	f.RefactorLowerBlock(x, b, make([]float64, b.M))
	return x
}

// TestDenseBuiltRefactorBitwiseNoOp: refreshing a dense-built factorization
// with the same values must be a bitwise no-op — the dense kernels' update
// order matches refactorColumn's left-looking sweep exactly. This is the
// invariant that keeps Refactor/RefactorPartial bitwise-stable downstream
// of dense-path factorizations.
func TestDenseBuiltRefactorBitwiseNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 40
	a := denseishCSC(rng, n, 0.45, true)
	f := &Factors{}
	ws := NewWorkspace(n)
	if err := FactorDenseInto(f, a, Options{}, ws); err != nil {
		t.Fatal(err)
	}
	lvals := append([]float64(nil), f.L.Values...)
	uvals := append([]float64(nil), f.U.Values...)
	if err := f.Refactor(a, ws); err != nil {
		t.Fatal(err)
	}
	for i, v := range lvals {
		if f.L.Values[i] != v {
			t.Fatalf("L value %d changed: %v -> %v", i, v, f.L.Values[i])
		}
	}
	for i, v := range uvals {
		if f.U.Values[i] != v {
			t.Fatalf("U value %d changed: %v -> %v", i, v, f.U.Values[i])
		}
	}
}

// TestFactorDenseIntoRecyclesStorage: repeated dense factorizations on the
// same dimension must stop allocating once the workspace and factor
// storage have grown.
func TestFactorDenseIntoRecyclesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 28
	steps := make([]*sparse.CSC, 3)
	for i := range steps {
		steps[i] = denseishCSC(rng, n, 0.5, true)
	}
	f := &Factors{}
	ws := NewWorkspace(n)
	for _, s := range steps {
		if err := FactorDenseInto(f, s, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := FactorDenseInto(f, steps[i%len(steps)], Options{}, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FactorDenseInto allocates: %v allocs/op", allocs)
	}
}
