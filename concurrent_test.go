package basker

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matgen"
)

// TestConcurrentSolveHammer runs Solve and SolveMany against one
// Factorization from many goroutines at once (run with -race to check the
// workspace pool): every per-call buffer must be private.
func TestConcurrentSolveHammer(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{
		N: 800, BTFPct: 50, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 42,
	})
	f, err := New(Options{Threads: 4, BigBlockMin: 64}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				if (g+it)%2 == 0 {
					got := append([]float64(nil), b...)
					f.Solve(got)
					assertClose(t, got, x)
				} else {
					batch := make([][]float64, 4)
					for c := range batch {
						batch[c] = append([]float64(nil), b...)
					}
					f.SolveMany(batch)
					for _, got := range batch {
						assertClose(t, got, x)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSolveMany8Wide hammers one Factorization with concurrent
// full-panel (8-vector) SolveMany calls — the batch shape of the serving
// layer — each goroutine on its own right-hand sides and each result
// compared == with Solve. Under -race it checks that the pooled
// row-interleaved panels are private to their call.
func TestConcurrentSolveMany8Wide(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{
		N: 800, BTFPct: 50, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 43,
	})
	f, err := New(Options{Threads: 4, BigBlockMin: 64}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, width = 8, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			rhs := make([][]float64, width)
			want := make([][]float64, width)
			batch := make([][]float64, width)
			for c := range rhs {
				rhs[c] = make([]float64, a.N)
				for i := range rhs[c] {
					rhs[c][i] = rng.NormFloat64()
				}
				want[c] = append([]float64(nil), rhs[c]...)
				f.Solve(want[c])
				batch[c] = make([]float64, a.N)
			}
			for it := 0; it < 20; it++ {
				for c := range batch {
					copy(batch[c], rhs[c])
				}
				if err := f.SolveMany(batch); err != nil {
					t.Error(err)
					return
				}
				for c := range batch {
					for i, w := range want[c] {
						if batch[c][i] != w {
							t.Errorf("goroutine %d rhs %d: SolveMany differs from Solve at %d", g, c, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func assertClose(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
			return
		}
	}
}

// TestSolveManyGolden asserts SolveMany matches repeated single Solve
// bit-for-bit, across panel boundaries and with parallel panels.
func TestSolveManyGolden(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{
		N: 600, BTFPct: 40, Blocks: 25, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 7,
	})
	f, err := New(Options{Threads: 4, BigBlockMin: 64}).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	const k = 67 // crosses panel boundaries with an uneven tail
	rng := rand.New(rand.NewSource(2))
	single := make([][]float64, k)
	batch := make([][]float64, k)
	for c := 0; c < k; c++ {
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		single[c] = append([]float64(nil), b...)
		batch[c] = b
	}
	for c := range single {
		f.Solve(single[c])
	}
	f.SolveMany(batch)
	for c := range batch {
		for i := range batch[c] {
			if batch[c][i] != single[c][i] {
				t.Fatalf("rhs %d: SolveMany differs from Solve at %d: %v != %v",
					c, i, batch[c][i], single[c][i])
			}
		}
	}

	// SolveMatrix is the same sweep over a column-major buffer; batch holds
	// the solved references at this point.
	xmat := make([]float64, a.N*3)
	for c := 0; c < 3; c++ {
		rng2 := rand.New(rand.NewSource(int64(c)))
		for i := 0; i < a.N; i++ {
			xmat[c*a.N+i] = rng2.NormFloat64()
		}
	}
	ref := make([][]float64, 3)
	for c := range ref {
		ref[c] = append([]float64(nil), xmat[c*a.N:(c+1)*a.N]...)
		f.Solve(ref[c])
	}
	if err := f.SolveMatrix(xmat, 3); err != nil {
		t.Fatal(err)
	}
	for c := range ref {
		for i := range ref[c] {
			if xmat[c*a.N+i] != ref[c][i] {
				t.Fatalf("SolveMatrix col %d differs at %d", c, i)
			}
		}
	}
	if err := f.SolveMatrix(xmat, 2); err == nil {
		t.Fatal("SolveMatrix accepted mismatched dimensions")
	}
}

// TestPoolContention mixes Factor-miss and Refactor-hit paths under
// contention: several goroutines serve transient sequences drawn from a
// small set of sparsity patterns through one Pool.
func TestPoolContention(t *testing.T) {
	bases := []*Matrix{
		matgen.XyceSequenceBase(0.1),
		matgen.Circuit(matgen.CircuitParams{
			N: 500, BTFPct: 45, Blocks: 20, Core: matgen.CoreLadder, ExtraDensity: 0.35, Seed: 13,
		}),
		matgen.Mesh2D(14, 3),
	}
	pool := NewPool(PoolOptions{Options: Options{Threads: 2, BigBlockMin: 64}})

	const goroutines = 6
	const iters = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				base := bases[(g+it)%len(bases)]
				m := matgen.TransientStep(base, it, int64(g))
				x := make([]float64, m.N)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				b := make([]float64, m.N)
				m.MulVec(b, x)
				lease, err := pool.Acquire(m)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				lease.Solve(b)
				lease.Release()
				assertClose(t, b, x)
			}
		}(g)
	}
	wg.Wait()

	st := pool.Stats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("hits %d + misses %d != %d acquires", st.Hits, st.Misses, goroutines*iters)
	}
	if st.Misses < uint64(len(bases)) {
		t.Fatalf("misses %d below pattern count %d", st.Misses, len(bases))
	}
	if st.Hits == 0 {
		t.Fatal("no Refactor hits despite repeated patterns")
	}
	if st.Idle == 0 {
		t.Fatal("pool retained nothing")
	}

	// Sequential reuse: a second pass over the same patterns must be all
	// hits when contention is gone.
	before := pool.Stats()
	for _, base := range bases {
		m := matgen.TransientStep(base, 99, 5)
		b := make([]float64, m.N)
		for i := range b {
			b[i] = 1
		}
		if err := pool.Solve(m, b); err != nil {
			t.Fatal(err)
		}
	}
	after := pool.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("sequential same-pattern pass took %d fresh factorizations, want 0",
			after.Misses-before.Misses)
	}
}
