package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// multiplyLU computes (L·U)(i,j) densely for verification.
func multiplyLU(f *Factors) [][]float64 {
	n := f.N
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	// out += L(:,k) * U(k,:) — iterate U columns.
	for j := 0; j < n; j++ {
		for p := f.U.Colptr[j]; p < f.U.Colptr[j+1]; p++ {
			k := f.U.Rowidx[p]
			ukj := f.U.Values[p]
			for q := f.L.Colptr[k]; q < f.L.Colptr[k+1]; q++ {
				out[f.L.Rowidx[q]][j] += f.L.Values[q] * ukj
			}
		}
	}
	return out
}

func checkFactorization(t *testing.T, a *sparse.CSC, f *Factors, tolmul float64) {
	t.Helper()
	n := a.N
	if !sparse.IsPerm(f.P) {
		t.Fatal("P is not a permutation")
	}
	lu := multiplyLU(f)
	scale := a.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := a.At(f.P[i], j)
			if math.Abs(lu[i][j]-want) > tolmul*1e-10*scale {
				t.Fatalf("LU(%d,%d) = %v, want A(P,:) = %v", i, j, lu[i][j], want)
			}
		}
	}
	checkTriangular(t, f)
}

func checkTriangular(t *testing.T, f *Factors) {
	t.Helper()
	for j := 0; j < f.N; j++ {
		p0, p1 := f.L.Colptr[j], f.L.Colptr[j+1]
		if p0 == p1 || f.L.Rowidx[p0] != j || f.L.Values[p0] != 1 {
			t.Fatalf("L column %d does not start with unit diagonal", j)
		}
		for p := p0; p < p1; p++ {
			if f.L.Rowidx[p] < j {
				t.Fatalf("L has entry above diagonal in column %d", j)
			}
		}
		q0, q1 := f.U.Colptr[j], f.U.Colptr[j+1]
		if q0 == q1 || f.U.Rowidx[q1-1] != j {
			t.Fatalf("U column %d does not end with its pivot", j)
		}
		for q := q0; q < q1; q++ {
			if f.U.Rowidx[q] > j {
				t.Fatalf("U has entry below diagonal in column %d", j)
			}
		}
	}
	if err := f.L.Check(); err != nil {
		t.Fatalf("L malformed: %v", err)
	}
	if err := f.U.Check(); err != nil {
		t.Fatalf("U malformed: %v", err)
	}
}

func randNonsingular(rng *rand.Rand, n int, density float64) *sparse.CSC {
	coo := sparse.NewCOO(n, n, int(density*float64(n*n))+n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64()) // diagonally strong
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSC(false)
}

func TestFactorSmallDense(t *testing.T) {
	a := sparse.NewCOO(3, 3, 9)
	vals := [][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Add(i, j, vals[i][j])
		}
	}
	m := a.ToCSC(false)
	f, err := Factor(m, 0, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFactorization(t, m, f, 1)
	// Solve against a known vector.
	x := []float64{1, 2, 3}
	b := make([]float64, 3)
	m.MulVec(b, x)
	f.Solve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-12 {
			t.Fatalf("solve x[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

func TestFactorRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := randNonsingular(rng, n, 0.15)
		fac, err := Factor(a, 0, Options{}, nil)
		if err != nil {
			return false
		}
		// Residual check: A x = b.
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, x)
		fac.Solve(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSolvePanelMatchesSolve pins the row-interleaved panel solve to the
// single-vector one, lane by lane and component by component (==),
// including a zero lane and rows that are zero in every lane (the column
// skip).
func TestSolvePanelMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		f, err := Factor(randNonsingular(rng, n, 0.15), 0, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		panel := make([]PanelRow, n)
		for i := n / 3; i < n; i++ { // leading rows stay zero in all lanes
			for l := 0; l < PanelLanes-1; l++ { // the last lane stays zero
				panel[i][l] = rng.NormFloat64()
			}
		}
		want := make([][]float64, PanelLanes)
		for l := range want {
			want[l] = make([]float64, n)
			for i := range panel {
				want[l][i] = panel[i][l]
			}
			f.Solve(want[l])
		}
		y := make([]PanelRow, n) // the panel in pivot order
		for k, p := range f.P[:n] {
			y[k] = panel[p]
		}
		f.LSolvePanel(y)
		f.USolvePanel(y)
		for i := range y {
			for l, w := range want {
				if y[i][l] != w[i] {
					t.Fatalf("n=%d row %d lane %d: panel %v != solve %v", n, i, l, y[i][l], w[i])
				}
			}
		}
	}
}

func TestPartialPivotingKicksIn(t *testing.T) {
	// Zero diagonal forces off-diagonal pivots.
	coo := sparse.NewCOO(2, 2, 4)
	coo.Add(0, 0, 0)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 1, 0)
	a := coo.ToCSC(true) // drop the explicit zeros
	f, err := Factor(a, 0, Options{PivotTol: 1.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFactorization(t, a, f, 1)
	if f.P[0] != 1 || f.P[1] != 0 {
		t.Fatalf("P = %v, want [1 0]", f.P)
	}
}

func TestSingularDetection(t *testing.T) {
	// Exactly singular: two identical rows.
	coo := sparse.NewCOO(3, 3, 9)
	for j := 0; j < 3; j++ {
		coo.Add(0, j, float64(j+1))
		coo.Add(1, j, float64(j+1))
		coo.Add(2, j, float64(2*j+1))
	}
	_, err := Factor(coo.ToCSC(false), 0, Options{PivotTol: 1}, nil)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Structurally singular: empty column.
	coo2 := sparse.NewCOO(2, 2, 2)
	coo2.Add(0, 0, 1)
	coo2.Add(1, 0, 1)
	_, err = Factor(coo2.ToCSC(false), 0, Options{}, nil)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestRectangularRejected(t *testing.T) {
	if _, err := Factor(sparse.NewCSC(2, 3, 0), 0, Options{}, nil); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestNoPivotMode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randNonsingular(rng, 25, 0.1)
	f, err := Factor(a, 0, Options{NoPivot: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range f.P {
		if p != k {
			t.Fatalf("NoPivot produced P[%d] = %d", k, p)
		}
	}
	checkFactorization(t, a, f, 10)
}

func TestRefactorMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randNonsingular(rng, 40, 0.1)
	f, err := Factor(a, 0, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same pattern, new values.
	b := a.Clone()
	for i := range b.Values {
		b.Values[i] *= 1 + 0.3*rng.Float64()
	}
	// Keep the diagonal dominant so the old pivot order stays valid.
	if err := f.Refactor(b, nil); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, b.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	rhs := make([]float64, b.N)
	b.MulVec(rhs, x)
	f.Solve(rhs)
	for i := range x {
		if math.Abs(rhs[i]-x[i]) > 1e-8 {
			t.Fatalf("refactor solve x[%d] = %v, want %v", i, rhs[i], x[i])
		}
	}
	checkTriangular(t, f)
}

func TestRefactorSingular(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(0, 1, 2)
	a := coo.ToCSC(false)
	f, err := Factor(a, 0, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := a.Clone()
	bad.Values[0] = 0 // zero pivot
	if err := f.Refactor(bad, nil); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestDiagonalPreference(t *testing.T) {
	// With KLU-style tolerance the diagonal should be kept even when a
	// slightly larger off-diagonal entry exists.
	coo := sparse.NewCOO(2, 2, 4)
	coo.Add(0, 0, 1)
	coo.Add(1, 0, 2) // larger, but tol=0.001 keeps the diagonal
	coo.Add(0, 1, 1)
	coo.Add(1, 1, 1)
	a := coo.ToCSC(false)
	f, err := Factor(a, 0, Options{PivotTol: 0.001}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.P[0] != 0 {
		t.Fatalf("P[0] = %d, want diagonal pivot 0", f.P[0])
	}
	checkFactorization(t, a, f, 1e4)
}

func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	ws := NewWorkspace(4)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 16, 8, 32} {
		a := randNonsingular(rng, n, 0.2)
		f, err := Factor(a, 0, Options{}, ws)
		if err != nil {
			t.Fatal(err)
		}
		checkFactorization(t, a, f, 1)
	}
}

func TestFlopsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randNonsingular(rng, 30, 0.2)
	f, err := Factor(a, 0, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Flops <= 0 {
		t.Fatal("expected positive flop count")
	}
	if f.NnzLU() < a.N {
		t.Fatal("NnzLU impossibly small")
	}
}

// TestFactorPollStopsMidBlock pins the fresh factor's in-block cancellation
// poll, the kernel a single-block fresh FactorCtx runs: on one 4096-column
// block, column at a time and in width-8 supernodes, a cancel that fires
// right after the first poll must abort the kernel within 512 columns of
// it, not at the end of the block.
func TestFactorPollStopsMidBlock(t *testing.T) {
	const n, bound = 4096, 512
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
	}
	a := coo.ToCSC(true)
	var wide []int
	for k := 0; k <= n; k += 8 {
		wide = append(wide, k)
	}
	stop := errors.New("canceled")
	for _, xsup := range [][]int{nil, wide} {
		var f Factors
		polls, done := 0, 0
		poll := func() error {
			if polls++; polls == 1 {
				return nil
			}
			for _, p := range f.Pinv {
				if p >= 0 {
					done++
				}
			}
			return stop
		}
		err := FactorInto(&f, a, xsup, 0, Options{Poll: poll}, nil)
		if !errors.Is(err, stop) {
			t.Fatalf("supernodes %v: FactorInto returned %v after %d polls; want the cancel to stop it mid-block", xsup != nil, err, polls)
		}
		if done > bound {
			t.Fatalf("supernodes %v: the cancel stopped the kernel after %d columns, want ≤ %d", xsup != nil, done, bound)
		}
	}
}
