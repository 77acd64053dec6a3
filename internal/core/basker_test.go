package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// randCircuit builds a nonsingular circuit-like matrix: one large strongly
// connected core plus many tiny blocks and sparse upper coupling.
func randCircuit(rng *rand.Rand, n int, coreFrac float64) *sparse.CSC {
	coo := sparse.NewCOO(n, n, 8*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 6+rng.Float64())
	}
	core := int(coreFrac * float64(n))
	if core < 2 {
		core = 2
	}
	// Strongly connected ring + random sparse internals, grid-like locality.
	for i := 0; i < core; i++ {
		coo.Add((i+1)%core, i, 1+rng.Float64())
		if i+7 < core {
			coo.Add(i, i+7, rng.NormFloat64())
			coo.Add(i+7, i, rng.NormFloat64())
		}
		if rng.Float64() < 0.4 {
			coo.Add(rng.Intn(core), i, rng.NormFloat64()*0.3)
		}
	}
	// Tiny 2-cycles in the tail.
	for i := core; i+1 < n; i += 2 {
		coo.Add(i, i+1, rng.NormFloat64()*0.4)
		coo.Add(i+1, i, rng.NormFloat64()*0.4)
	}
	// Sparse strictly upper coupling between parts.
	for e := 0; e < n/2; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i < j {
			coo.Add(i, j, rng.NormFloat64()*0.2)
		}
	}
	return coo.ToCSC(false)
}

func grid2D(k int) *sparse.CSC {
	n := k * k
	coo := sparse.NewCOO(n, n, 5*n)
	id := func(i, j int) int { return i*k + j }
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := id(i, j)
			coo.Add(v, v, 4+rng.Float64())
			if i > 0 {
				coo.Add(v, id(i-1, j), -1)
			}
			if i < k-1 {
				coo.Add(v, id(i+1, j), -1)
			}
			if j > 0 {
				coo.Add(v, id(i, j-1), -1)
			}
			if j < k-1 {
				coo.Add(v, id(i, j+1), -1)
			}
		}
	}
	return coo.ToCSC(false)
}

func solveCheck(t *testing.T, a *sparse.CSC, num *Numeric, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	num.Solve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > tol*(1+math.Abs(x[i])) {
			t.Fatalf("x[%d] = %v, want %v (diff %g)", i, b[i], x[i], math.Abs(b[i]-x[i]))
		}
	}
}

func optsWithThreads(threads int) Options {
	o := DefaultOptions()
	o.Threads = threads
	o.BigBlockMin = 32 // small test matrices still exercise the ND engine
	return o
}

func TestSerialFactorSolveCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCircuit(rng, 300, 0.6)
	num, err := FactorDirect(a, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if num.Sym.NumNDBlocks() == 0 {
		t.Fatal("expected at least one fine-ND block")
	}
	solveCheck(t, a, num, 1e-8)
}

func TestParallelFactorSolveCircuit(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		rng := rand.New(rand.NewSource(2))
		a := randCircuit(rng, 400, 0.7)
		num, err := FactorDirect(a, optsWithThreads(threads))
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		solveCheck(t, a, num, 1e-8)
	}
}

func TestGridPureND(t *testing.T) {
	// A grid with a strongly connected pattern: the whole matrix is one
	// big ND block; exercises the parallel Gilbert-Peierls fully.
	a := grid2D(20)
	for _, threads := range []int{1, 2, 4} {
		num, err := FactorDirect(a, optsWithThreads(threads))
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if num.Sym.NumNDBlocks() != 1 {
			t.Fatalf("threads=%d: grid should be one ND block, got %d (blocks %d)",
				threads, num.Sym.NumNDBlocks(), num.Sym.NumBlocks())
		}
		solveCheck(t, a, num, 1e-8)
	}
}

func TestRefactorSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randCircuit(rng, 350, 0.6)
	num, err := FactorDirect(a, optsWithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		b := a.Clone()
		for i := range b.Values {
			b.Values[i] *= 1 + 0.15*rng.Float64()
		}
		if err := num.Refactor(b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		solveCheck(t, b, num, 1e-7)
	}
}

func TestNoBTFMode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCircuit(rng, 200, 0.5)
	opts := optsWithThreads(2)
	opts.UseBTF = false
	num, err := FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if num.Sym.NumBlocks() != 1 {
		t.Fatalf("UseBTF=false should give one block, got %d", num.Sym.NumBlocks())
	}
	solveCheck(t, a, num, 1e-8)
}

func TestNoMWCMNoLocalAMD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCircuit(rng, 250, 0.6)
	opts := optsWithThreads(2)
	opts.UseMWCM = false
	opts.LocalAMD = false
	num, err := FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a, num, 1e-8)
}

func TestSolvePropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(300)
		a := randCircuit(rng, n, 0.3+0.4*rng.Float64())
		threads := 1 << rng.Intn(3)
		num, err := FactorDirect(a, optsWithThreads(threads))
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, x)
		num.Solve(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFillComparableToKLUStyle(t *testing.T) {
	// Basker's |L+U| should stay in the same ballpark as the serial GP
	// factorization (Table I shows nearly identical columns).
	rng := rand.New(rand.NewSource(6))
	a := randCircuit(rng, 500, 0.65)
	num, err := FactorDirect(a, optsWithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	nnz := num.NnzLU()
	if nnz < a.N {
		t.Fatalf("|L+U| = %d impossibly small", nnz)
	}
	if fd := num.FillDensity(a); fd > 20 {
		t.Fatalf("fill density %v unexpectedly high for a circuit matrix", fd)
	}
}

func TestStructurallySingularError(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	if _, err := FactorDirect(coo.ToCSC(false), DefaultOptions()); err == nil {
		t.Fatal("expected error for structurally singular matrix")
	}
}

func TestNumericallySingularNDError(t *testing.T) {
	// A strongly connected block that is numerically singular: row 2 =
	// row 1 after symmetrization tricks are avoided by exact duplication.
	n := 40
	coo := sparse.NewCOO(n, n, 5*n)
	for i := 0; i < n; i++ {
		coo.Add((i+1)%n, i, 1) // ring: strongly connected
	}
	// Make two exactly dependent rows.
	for j := 0; j < n; j++ {
		coo.Add(2, j, 0) // ensure row 2 pattern superset (no-op values)
	}
	a := coo.ToCSC(false)
	opts := optsWithThreads(2)
	opts.BigBlockMin = 8
	// The ring alone is nonsingular; force singularity by zeroing values
	// in one column after assembly.
	for p := a.Colptr[5]; p < a.Colptr[6]; p++ {
		a.Values[p] = 0
	}
	if _, err := FactorDirect(a, opts); err == nil {
		t.Fatal("expected numerical singularity error")
	}
}

func TestRectangularRejected(t *testing.T) {
	if _, err := Analyze(sparse.NewCSC(2, 3, 0), DefaultOptions()); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestPermutationsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randCircuit(rng, 300, 0.6)
	sym, err := Analyze(a, optsWithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.IsPerm(sym.RowPerm) || !sparse.IsPerm(sym.ColPerm) {
		t.Fatal("composed permutations are invalid")
	}
	// The permuted matrix must have a zero-free diagonal on small blocks'
	// diagonal positions (MWCM guarantee survives composition).
	b := a.Permute(sym.RowPerm, sym.ColPerm)
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
}
