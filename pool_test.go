package basker

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matgen"
)

// smallPatterns generates n structurally distinct circuit patterns small
// enough for tight test loops.
func smallPatterns(n int) []*Matrix {
	mats := make([]*Matrix, n)
	for i := range mats {
		mats[i] = matgen.Circuit(matgen.CircuitParams{
			N: 90 + 13*i, BTFPct: 55, Blocks: 6 + i, Core: matgen.CoreLadder,
			ExtraDensity: 0.4, Seed: int64(101 + i),
		})
	}
	return mats
}

// scaleValues returns a same-pattern matrix with values scaled by s —
// refactor traffic for the pool's hit path.
func scaleValues(a *Matrix, s float64) *Matrix {
	b := a.Clone()
	for i := range b.Values {
		b.Values[i] *= s
	}
	return b
}

func checkLeaseSolve(t *testing.T, lease *Lease, a *Matrix, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	if err := lease.Solve(b); err != nil {
		t.Errorf("solve: %v", err)
		return
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-5*(1+math.Abs(x[i])) {
			t.Errorf("x[%d] = %v, want %v", i, b[i], x[i])
			return
		}
	}
}

// TestPoolHitPathZeroAlloc pins the steady-state hit path — pattern hash,
// metered lock, idle-cache checkout, no-change Refactor, lease handout and
// release — at zero allocations per operation.
func TestPoolHitPathZeroAlloc(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{
		N: 160, BTFPct: 50, Blocks: 8, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 5,
	})
	pool := NewPool(PoolOptions{Options: Options{Threads: 1, BigBlockMin: 64}})
	// Warm: first acquire factors, second settles Refactor's change-tracking
	// state.
	for i := 0; i < 2; i++ {
		lease, err := pool.Acquire(a)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		lease, err := pool.Acquire(a)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state hit path allocates %.2f allocs/op, want 0", allocs)
	}
	if st := pool.Stats(); st.LockHoldSeconds <= 0 {
		t.Fatalf("lock meter recorded no hold time on the hit path: %+v", st)
	}
}

// TestShardedPoolConcurrentMixedPatterns drives mixed refactor-or-factor
// (Acquire) and fresh-pivot (Factor) traffic over many small patterns from
// more goroutines than the admission cap allows (run with -race). The name
// predates the sharded front end's fold into Pool; the serving cache it
// checks is the one Pool. At rest every admission slot is back and the lock
// meter has counted the bookkeeping.
func TestShardedPoolConcurrentMixedPatterns(t *testing.T) {
	mats := smallPatterns(12)
	pool := NewPool(PoolOptions{
		Options:              Options{Threads: 2, BigBlockMin: 64},
		MaxConcurrentFactors: 4,
	})
	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				base := mats[rng.Intn(len(mats))]
				a := scaleValues(base, 0.5+rng.Float64())
				var lease *Lease
				var err error
				if rng.Intn(8) == 0 {
					lease, err = pool.Factor(a) // fresh-pivot traffic
				} else {
					lease, err = pool.Acquire(a) // refactor-or-factor traffic
				}
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				checkLeaseSolve(t, lease, a, int64(g*1000+it))
				lease.Release()
			}
		}(g)
	}
	wg.Wait()

	s := pool.Stats()
	if got := s.Hits + s.Misses + s.FactorReuses; got != goroutines*iters {
		t.Fatalf("hits %d + misses %d + factor reuses %d != %d calls",
			s.Hits, s.Misses, s.FactorReuses, goroutines*iters)
	}
	if s.InFlightFactors != 0 {
		t.Fatalf("admission slots leaked: %d still held", s.InFlightFactors)
	}
	if s.LockHoldSeconds <= 0 {
		t.Fatalf("lock meter recorded no hold time")
	}
}
