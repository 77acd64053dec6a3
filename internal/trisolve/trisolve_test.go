package trisolve

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func testMatrix(t testing.TB) *sparse.CSC {
	t.Helper()
	return matgen.Circuit(matgen.CircuitParams{
		N: 700, BTFPct: 50, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 11,
	})
}

func factor(t testing.TB, a *sparse.CSC, threads int) *core.Numeric {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Threads = threads
	opts.BigBlockMin = 64
	num, err := core.FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return num
}

func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// TestSolveMatchesSerial pins every trisolve path — serial, blocked
// multi-RHS and panel-parallel — to the bit pattern of core.Numeric.Solve.
func TestSolveMatchesSerial(t *testing.T) {
	a := testMatrix(t)
	num := factor(t, a, 4)

	const k = 70 // several panels, uneven tail
	ref := make([][]float64, k)
	for c := range ref {
		ref[c] = randRHS(a.N, int64(c))
	}
	want := make([][]float64, k)
	for c := range ref {
		want[c] = append([]float64(nil), ref[c]...)
		num.Solve(want[c])
	}

	cases := []struct {
		name string
		opt  Options
	}{
		{"serial", Options{Workers: 1}},
		{"panel-parallel", Options{Workers: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(num, tc.opt)
			// Single solves.
			for c := 0; c < 4; c++ {
				got := append([]float64(nil), ref[c]...)
				s.Solve(got)
				for i := range got {
					if got[i] != want[c][i] {
						t.Fatalf("Solve rhs %d: bit mismatch at %d: %v != %v", c, i, got[i], want[c][i])
					}
				}
			}
			// Batched.
			got := make([][]float64, k)
			for c := range ref {
				got[c] = append([]float64(nil), ref[c]...)
			}
			s.SolveMany(got)
			for c := range got {
				for i := range got[c] {
					if got[c][i] != want[c][i] {
						t.Fatalf("SolveMany rhs %d: bit mismatch at %d: %v != %v", c, i, got[c][i], want[c][i])
					}
				}
			}
		})
	}
}

func TestSolveMatrix(t *testing.T) {
	a := testMatrix(t)
	num := factor(t, a, 2)
	s := New(num, Options{Workers: 2})
	const k = 5
	n := a.N
	x := make([]float64, n*k)
	want := make([][]float64, k)
	for c := 0; c < k; c++ {
		b := randRHS(n, 100+int64(c))
		copy(x[c*n:], b)
		want[c] = b
		num.Solve(want[c])
	}
	s.SolveMatrix(x, k)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			if x[c*n+i] != want[c][i] {
				t.Fatalf("col %d row %d: %v != %v", c, i, x[c*n+i], want[c][i])
			}
		}
	}
}

// TestConcurrentSolvesRace hammers one Solver from many goroutines mixing
// Solve and SolveMany; run under -race it checks the workspace pool and
// the panel-parallel sweep share nothing by accident.
func TestConcurrentSolvesRace(t *testing.T) {
	a := testMatrix(t)
	num := factor(t, a, 4)
	x := randRHS(a.N, 7)
	b := make([]float64, a.N)
	a.MulVec(b, x)

	s := New(num, Options{Workers: 4})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 15; it++ {
				if (g+it)%2 == 0 {
					got := append([]float64(nil), b...)
					s.Solve(got)
					checkSolution(t, got, x)
				} else {
					batch := make([][]float64, gp.PanelLanes)
					for c := range batch {
						batch[c] = append([]float64(nil), b...)
					}
					s.SolveMany(batch)
					for _, got := range batch {
						checkSolution(t, got, x)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func checkSolution(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
			return
		}
	}
}

func TestSolveRefinedPooled(t *testing.T) {
	a := testMatrix(t)
	num := factor(t, a, 2)
	s := New(num, Options{Workers: 2})
	x := randRHS(a.N, 21)
	b := make([]float64, a.N)
	a.MulVec(b, x)
	res, err := s.SolveRefined(a, b, 3)
	if err != nil {
		t.Fatalf("SolveRefined: %v", err)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("refined residual %g too large", res.Residual)
	}
	if !res.Converged {
		t.Errorf("refinement did not converge: %+v", res)
	}
	if res.BackwardError > RefineTol {
		t.Errorf("backward error %g above RefineTol", res.BackwardError)
	}
	checkSolution(t, b, x)
}

// TestSolveRefinedStagnation pins the stagnation rule on a system that
// improves, but slowly: refining A = M/4 against the factors of M turns
// every correction into x += (A⁻¹b − x)/4, so the error, and with it ω,
// shrinks by about 3/4 per step. A step that does not at least halve ω is
// stagnation, so refinement must stop after the first correction, with ω
// below the direct solve's, instead of running to maxIters.
func TestSolveRefinedStagnation(t *testing.T) {
	m := testMatrix(t)
	s := New(factor(t, m, 1), Options{Workers: 1})
	a := m.Clone()
	for i := range a.Values {
		a.Values[i] /= 4
	}
	rhs := make([]float64, a.N)
	a.MulVec(rhs, randRHS(a.N, 22))
	b := slices.Clone(rhs)
	direct, err := s.SolveRefined(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	b = slices.Clone(rhs)
	res, err := s.SolveRefined(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stagnated || res.Iterations != 1 || res.BackwardError >= direct.BackwardError {
		t.Fatalf("refinement %+v after a direct ω = %g: want stagnation after one improving correction",
			res, direct.BackwardError)
	}
}

// TestSteadyStateAllocs asserts the solve paths stop allocating once the
// workspace pool is warm: the single-RHS Solve at every thread count —
// including BTF-only inputs with many large blocks, where a solver with
// several workers still runs the serial sweep — and the serial
// SolveMany/SolveMatrix on a full panel, a panel plus a one-vector tail,
// and several panels with a tail.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are unrepresentative")
	}
	for _, tc := range []struct {
		name    string
		a       *sparse.CSC
		threads int
	}{
		{"circuit/T1", testMatrix(t), 1},
		{"powergrid-20000/T2", matgen.PowerGrid(20000, 8, 3), 2},
		{"powergrid-4000/T4", matgen.PowerGrid(4000, 12, 1), 4},
	} {
		num := factor(t, tc.a, tc.threads)
		s := New(num, Options{Workers: tc.threads})
		b := randRHS(tc.a.N, 3)
		s.Solve(b) // warm the pool
		if avg := testing.AllocsPerRun(50, func() { s.Solve(b) }); avg > 0.5 {
			t.Errorf("%s: Solve allocates %.1f objects/call in steady state, want 0", tc.name, avg)
		}
	}
	a := testMatrix(t)
	s := New(factor(t, a, 1), Options{Workers: 1})
	for _, k := range []int{2, 8, 9, 33} {
		batch := make([][]float64, k)
		for c := range batch {
			batch[c] = randRHS(a.N, int64(4+c))
		}
		x := make([]float64, a.N*k)
		s.SolveMany(batch) // warm the panel buffer
		if avg := testing.AllocsPerRun(20, func() { s.SolveMany(batch) }); avg > 0.5 {
			t.Errorf("SolveMany(k=%d) allocates %.1f objects/call in steady state, want 0", k, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { s.SolveMatrix(x, k) }); avg > 0.5 {
			t.Errorf("SolveMatrix(k=%d) allocates %.1f objects/call in steady state, want 0", k, avg)
		}
	}
}
