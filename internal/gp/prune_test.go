package gp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// factorBoth factors a with and without Eisenstat–Liu pruning.
func factorBoth(t *testing.T, a *sparse.CSC, opts Options) (pruned, plain *Factors) {
	t.Helper()
	pruned, err := Factor(a, 0, opts, nil)
	if err != nil {
		t.Fatalf("pruned factor: %v", err)
	}
	opts.NoPrune = true
	plain, err = Factor(a, 0, opts, nil)
	if err != nil {
		t.Fatalf("unpruned factor: %v", err)
	}
	return pruned, plain
}

// checkSameFactorization asserts identical pivot sequences, identical L/U
// patterns, and identical value bits: symmetric pruning is a symbolic
// shortcut only. It changes which edges the reach follows, not the reach,
// and the elimination runs in ascending pivot order whatever order the
// search visited the columns in.
func checkSameFactorization(t *testing.T, pruned, plain *Factors) {
	t.Helper()
	for k := range plain.P {
		if pruned.P[k] != plain.P[k] {
			t.Fatalf("pivot sequence diverges at step %d: pruned %d, unpruned %d", k, pruned.P[k], plain.P[k])
		}
	}
	checkSameCSC(t, "L", pruned.L, plain.L)
	checkSameCSC(t, "U", pruned.U, plain.U)
}

func checkSameCSC(t *testing.T, name string, got, want *sparse.CSC) {
	t.Helper()
	if got.Nnz() != want.Nnz() {
		t.Fatalf("%s pattern size: pruned %d entries, unpruned %d", name, got.Nnz(), want.Nnz())
	}
	for j := 0; j < want.N; j++ {
		if got.Colptr[j+1] != want.Colptr[j+1] {
			t.Fatalf("%s column %d boundary differs", name, j)
		}
	}
	for p, r := range want.Rowidx {
		if got.Rowidx[p] != r {
			t.Fatalf("%s entry %d: pruned row %d, unpruned row %d", name, p, got.Rowidx[p], r)
		}
		if math.Float64bits(got.Values[p]) != math.Float64bits(want.Values[p]) {
			t.Fatalf("%s entry %d: pruned value %v, unpruned %v", name, p, got.Values[p], want.Values[p])
		}
	}
}

// TestPrunedEquivalenceSuite sweeps every matrix-generator class of the
// paper's evaluation (circuit and mesh suites) and checks that the pruned
// factorization is bitwise the unpruned one: same pivots, same structural
// L/U patterns, same value bits.
func TestPrunedEquivalenceSuite(t *testing.T) {
	suite := matgen.TableISuite(0.08)
	suite = append(suite, matgen.TableIISuite(0.1)...)
	for _, m := range suite {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			a := m.Gen()
			pruned, plain := factorBoth(t, a, Options{PivotTol: DefaultPivotTol})
			checkSameFactorization(t, pruned, plain)
		})
	}
}

// TestPrunedEquivalenceRandom adds random nonsingular matrices with strict
// partial pivoting (PivotTol 1), where the DFS order differs the most.
func TestPrunedEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		a := randNonsingular(rng, n, 0.12)
		pruned, plain := factorBoth(t, a, Options{PivotTol: 1})
		checkSameFactorization(t, pruned, plain)
		checkFactorization(t, a, pruned, 10)
	}
}

// TestPruneEndBoundsDFS verifies the finished-factor prune pointers: every
// PruneEnd lies inside its column, the pruned reach UpperBlockPattern finds
// is the reach over the full columns, and the upper-block kernel filled over
// it matches a dense forward substitution.
func TestPruneEndBoundsDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randNonsingular(rng, 120, 0.1)
	f, err := Factor(a, 0, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.PruneEnd == nil {
		t.Fatal("PruneEnd not built")
	}
	prunedCols := 0
	for j := 0; j < f.N; j++ {
		p0, p1 := f.L.Colptr[j], f.L.Colptr[j+1]
		if f.PruneEnd[j] < p0+1 && p1 > p0+1 {
			t.Fatalf("column %d: PruneEnd %d below column start %d", j, f.PruneEnd[j], p0+1)
		}
		if f.PruneEnd[j] > p1 {
			t.Fatalf("column %d: PruneEnd %d beyond column end %d", j, f.PruneEnd[j], p1)
		}
		if f.PruneEnd[j] < p1 {
			prunedCols++
		}
	}
	if prunedCols == 0 {
		t.Fatal("no column was pruned on a connected random matrix")
	}
	// A sparse right-hand side: every third row, one column.
	coo := sparse.NewCOO(f.N, 1, f.N)
	b := make([]float64, f.N)
	for i := 0; i < f.N; i += 3 {
		b[i] = rng.NormFloat64()
		coo.Add(i, 0, b[i])
	}
	bc := coo.ToCSC(false)
	ws := NewWorkspace(f.N)
	up := f.UpperBlockPattern(nil, bc, ws)
	full := *f
	full.PruneEnd = nil
	whole := full.UpperBlockPattern(nil, bc, ws)
	if !slices.Equal(up.Rowidx, whole.Rowidx) {
		t.Fatalf("pruned reach %v, full reach %v", up.Rowidx, whole.Rowidx)
	}
	f.RefactorUpperBlock(up, bc, ws)
	got := make([]float64, f.N)
	for p, r := range up.Rowidx {
		got[r] = up.Values[p]
	}
	// Dense reference: y = L \ (P b) on a dense copy of L.
	ld := make([][]float64, f.N)
	for j := range ld {
		ld[j] = make([]float64, f.N)
		for p := f.L.Colptr[j]; p < f.L.Colptr[j+1]; p++ {
			ld[j][f.L.Rowidx[p]] = f.L.Values[p]
		}
	}
	y := make([]float64, f.N)
	for k := 0; k < f.N; k++ {
		y[k] = b[f.P[k]]
	}
	for j := 0; j < f.N; j++ {
		for i := j + 1; i < f.N; i++ {
			y[i] -= float64(ld[j][i] * y[j])
		}
	}
	for i := range y {
		if math.Abs(got[i]-y[i]) > 1e-10*(1+math.Abs(y[i])) {
			t.Fatalf("pruned sparse solve x[%d] = %v, dense %v", i, got[i], y[i])
		}
	}
}

// TestFactorsCompact pins the exact-size storage of a fresh factor: even
// a generous nnz hint, which only sizes the emission scratch, leaves no
// slack in the factor's slices, and a FactorInto into storage too small
// for the new factor replaces it with exact-length slices as well.
func TestFactorsCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randNonsingular(rng, 200, 0.05)
	f, err := Factor(a, 8*a.Nnz(), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkExactStorage(t, f)
	small := &Factors{L: sparse.NewCSC(a.N, a.N, 1), U: sparse.NewCSC(a.N, a.N, 1)}
	if err := FactorInto(small, a, nil, 8*a.Nnz(), Options{}, nil); err != nil {
		t.Fatal(err)
	}
	checkExactStorage(t, small)
	// The factors solve correctly.
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	f.Solve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-8 {
			t.Fatalf("solve: x[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

// checkExactStorage fails unless every entry slice of f's L and U has
// cap == len.
func checkExactStorage(t *testing.T, f *Factors) {
	t.Helper()
	for _, c := range []struct {
		name string
		m    *sparse.CSC
	}{{"L", f.L}, {"U", f.U}} {
		if cap(c.m.Colptr) != len(c.m.Colptr) || cap(c.m.Rowidx) != len(c.m.Rowidx) || cap(c.m.Values) != len(c.m.Values) {
			t.Fatalf("%s keeps slack: colptr %d/%d, rowidx %d/%d, values %d/%d", c.name,
				len(c.m.Colptr), cap(c.m.Colptr), len(c.m.Rowidx), cap(c.m.Rowidx), len(c.m.Values), cap(c.m.Values))
		}
	}
}

// TestFactorIntoSteadyStateAllocFree pins the pooled-storage guarantee: a
// FactorInto that reuses prior storage of the same pattern performs zero
// allocations once every buffer has been grown.
func TestFactorIntoSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := randNonsingular(rng, 150, 0.08)
	ws := NewWorkspace(base.N)
	f := &Factors{}
	if err := FactorInto(f, base, nil, 0, Options{}, ws); err != nil {
		t.Fatal(err)
	}
	steps := make([]*sparse.CSC, 3)
	for i := range steps {
		steps[i] = base.Clone()
		for p := range steps[i].Values {
			steps[i].Values[p] *= 1 + 0.1*rng.Float64()
		}
		if err := FactorInto(f, steps[i], nil, 0, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := FactorInto(f, steps[i%len(steps)], nil, 0, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FactorInto allocates: %v allocs/op", allocs)
	}
	checkFactorization(t, steps[i%len(steps)], f, 10)
}
