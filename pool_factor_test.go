package basker

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// poolFactorFixture builds a short transient sequence sharing one pattern.
func poolFactorFixture(scale float64) []*sparse.CSC {
	base := matgen.XyceSequenceBase(scale)
	mats := make([]*sparse.CSC, 8)
	for t := range mats {
		mats[t] = matgen.TransientStep(base, t, 99)
	}
	return mats
}

// TestPoolFactorFreshPivots: Pool.Factor must run a genuinely fresh
// pivoting factorization (recycling storage), produce correct solves, and
// count its reuses.
func TestPoolFactorFreshPivots(t *testing.T) {
	mats := poolFactorFixture(0.1)
	pool := NewPool(PoolOptions{Options: Options{Threads: 2, BigBlockMin: 64}})
	rng := rand.New(rand.NewSource(3))
	for i, a := range mats {
		lease, err := pool.Factor(a)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		x := make([]float64, a.N)
		for k := range x {
			x[k] = rng.NormFloat64()
		}
		b := make([]float64, a.N)
		a.MulVec(b, x)
		lease.Solve(b)
		for k := range x {
			if math.Abs(b[k]-x[k]) > 1e-6*(1+math.Abs(x[k])) {
				t.Fatalf("step %d: x[%d] = %v, want %v", i, k, b[k], x[k])
			}
		}
		lease.Release()
	}
	st := pool.Stats()
	if st.Misses != 1 {
		t.Fatalf("want exactly one cold miss, got %d", st.Misses)
	}
	if st.FactorReuses != uint64(len(mats)-1) {
		t.Fatalf("want %d storage-recycled factorizations, got %d", len(mats)-1, st.FactorReuses)
	}
}

// TestPoolFactorAllocBudget pins the PR's memory acceptance bar: repeated
// same-pattern fresh factorization through the pool must allocate at most
// 5% of what the factor-every-call path (full Analyze + Factor, the pre-PR
// pool miss) allocates.
func TestPoolFactorAllocBudget(t *testing.T) {
	mats := poolFactorFixture(0.1)
	opts := Options{Threads: 2, BigBlockMin: 64}

	solver := New(opts)
	if _, err := solver.Factor(mats[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	baseline := testing.AllocsPerRun(20, func() {
		i++
		if _, err := solver.Factor(mats[i%len(mats)]); err != nil {
			t.Fatal(err)
		}
	})

	pool := NewPool(PoolOptions{Options: opts})
	for w := 0; w < 3; w++ { // warm the symbolic cache and one pooled entry
		lease, err := pool.Factor(mats[w])
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	i = 0
	pooled := testing.AllocsPerRun(20, func() {
		i++
		lease, err := pool.Factor(mats[i%len(mats)])
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	})
	if baseline == 0 {
		t.Fatal("baseline allocation measurement broken")
	}
	if ratio := pooled / baseline; ratio > 0.05 {
		t.Fatalf("pool.Factor allocates %.0f/op vs %.0f/op for factor-every-call (%.1f%%, budget 5%%)",
			pooled, baseline, 100*ratio)
	}
}

// TestPoolSymbolicCacheBounded: a workload whose sparsity pattern evolves
// must not grow the symbolic cache without bound; evicted patterns simply
// re-analyze on their next miss and everything keeps solving.
func TestPoolSymbolicCacheBounded(t *testing.T) {
	pool := NewPool(PoolOptions{
		Options:           Options{Threads: 1, BigBlockMin: 64},
		MaxCachedPatterns: 2,
	})
	rng := rand.New(rand.NewSource(17))
	patterns := make([]*sparse.CSC, 5)
	for i := range patterns {
		patterns[i] = matgen.Circuit(matgen.CircuitParams{
			N: 220 + 20*i, BTFPct: 50, Blocks: 10, Core: matgen.CoreLadder,
			ExtraDensity: 0.3, Seed: int64(100 + i),
		})
	}
	for round := 0; round < 3; round++ {
		for i, a := range patterns {
			lease, err := pool.Factor(a)
			if err != nil {
				t.Fatalf("round %d pattern %d: %v", round, i, err)
			}
			x := make([]float64, a.N)
			for k := range x {
				x[k] = rng.NormFloat64()
			}
			b := make([]float64, a.N)
			a.MulVec(b, x)
			lease.Solve(b)
			for k := range x {
				if math.Abs(b[k]-x[k]) > 1e-6*(1+math.Abs(x[k])) {
					t.Fatalf("round %d pattern %d: x[%d] = %v, want %v", round, i, k, b[k], x[k])
				}
			}
			lease.Release()
		}
	}
}

// TestPoolAcquireRepivotFallbackReusesStorage: when new values defeat a
// cached pivot sequence, Acquire re-pivots in the recycled entry instead of
// discarding it.
func TestPoolAcquireRepivotFallbackReusesStorage(t *testing.T) {
	mats := poolFactorFixture(0.08)
	pool := NewPool(PoolOptions{Options: Options{Threads: 1, BigBlockMin: 64}})
	l0, err := pool.Acquire(mats[0])
	if err != nil {
		t.Fatal(err)
	}
	l0.Release()
	// Negate everything and scale wildly: the pattern is unchanged, so
	// Acquire verifies, tries Refactor, and either succeeds (fast path) or
	// re-pivots. Then force the pivot-defeating case: zero the old pivots'
	// magnitudes by scaling one step's values to span many decades.
	drifted := mats[1].Clone()
	rng := rand.New(rand.NewSource(8))
	for p := range drifted.Values {
		drifted.Values[p] = -drifted.Values[p] * math.Pow(10, float64(rng.Intn(6)-3))
	}
	l1, err := pool.Acquire(drifted)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, drifted.N)
	for k := range x {
		x[k] = rng.NormFloat64()
	}
	b := make([]float64, drifted.N)
	drifted.MulVec(b, x)
	l1.Solve(b)
	for k := range x {
		if math.Abs(b[k]-x[k]) > 1e-5*(1+math.Abs(x[k])) {
			t.Fatalf("x[%d] = %v, want %v", k, b[k], x[k])
		}
	}
	l1.Release()
}

// TestPoolAgeEviction: idle entries older than MaxIdleAge are dropped
// lazily on the pool's own operations, counted in Stats, and do not break
// subsequent acquisitions (they just miss).
func TestPoolAgeEviction(t *testing.T) {
	mats := poolFactorFixture(0.1)
	pool := NewPool(PoolOptions{
		Options:    Options{Threads: 1, BigBlockMin: 64},
		MaxIdleAge: time.Minute,
	})
	clock := time.Now()
	pool.now = func() time.Time { return clock }

	lease, err := pool.Acquire(mats[0])
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if st := pool.Stats(); st.Idle != 1 || st.Evictions != 0 {
		t.Fatalf("after release: %+v", st)
	}
	// Within the age limit: the entry is reused (a hit).
	clock = clock.Add(30 * time.Second)
	lease, err = pool.Acquire(mats[1])
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if st := pool.Stats(); st.Hits != 1 {
		t.Fatalf("expected a hit within the age limit: %+v", st)
	}
	// Beyond the age limit: the entry is evicted and the acquire misses.
	clock = clock.Add(2 * time.Minute)
	lease, err = pool.Acquire(mats[2])
	if err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Evictions != 1 {
		t.Fatalf("expected one age eviction: %+v", st)
	}
	if st.Misses != 2 { // first-ever acquire + post-expiry acquire
		t.Fatalf("expected the expired entry to miss: %+v", st)
	}
	if st.CachedSymbolics != 1 {
		t.Fatalf("symbolic analysis should survive entry eviction: %+v", st)
	}
	solveProbe(t, lease.Factorization, mats[2])
	lease.Release()
}

// TestPoolCapacityEvictionCounted: releases beyond MaxIdlePerPattern count
// as evictions.
func TestPoolCapacityEvictionCounted(t *testing.T) {
	mats := poolFactorFixture(0.1)
	pool := NewPool(PoolOptions{
		Options:           Options{Threads: 1, BigBlockMin: 64},
		MaxIdlePerPattern: 1,
	})
	l1, err := pool.Acquire(mats[0])
	if err != nil {
		t.Fatal(err)
	}
	l2, err := pool.Acquire(mats[1])
	if err != nil {
		t.Fatal(err)
	}
	l1.Release()
	l2.Release()
	st := pool.Stats()
	if st.Idle != 1 || st.Evictions != 1 {
		t.Fatalf("capacity eviction not counted: %+v", st)
	}
}

// solveProbe checks one factorization against a generated matrix.
func solveProbe(t *testing.T, f *Factorization, a *sparse.CSC) {
	t.Helper()
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	f.Solve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

// BenchmarkPoolMultiPattern is the multi-pattern contention benchmark of
// the serving-layer hardening: goroutines hammer Acquire/Solve/Release
// across several distinct sparsity-pattern families concurrently, so the
// pool lock, the per-pattern buckets and the symbolic cache all see
// contention (the earlier benches covered one pattern family only).
func BenchmarkPoolMultiPattern(b *testing.B) {
	const patterns = 4
	bases := make([][]*sparse.CSC, patterns)
	for pidx := range bases {
		base := matgen.XyceSequenceBase(0.05 + 0.02*float64(pidx))
		steps := make([]*sparse.CSC, 4)
		for t := range steps {
			steps[t] = matgen.TransientStep(base, t, int64(100*pidx))
		}
		bases[pidx] = steps
	}
	pool := NewPool(PoolOptions{Options: Options{Threads: 1, BigBlockMin: 64}})
	// Warm every pattern so the timed loop measures steady-state serving.
	for _, steps := range bases {
		if err := pool.Solve(steps[0], make([]float64, steps[0].N)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var firstErr atomic.Value
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			steps := bases[i%patterns]
			a := steps[i%len(steps)]
			lease, err := pool.Acquire(a)
			if err != nil {
				// FailNow must run on the benchmark goroutine; record and
				// bail out of this worker instead.
				firstErr.CompareAndSwap(nil, err)
				return
			}
			rhs := make([]float64, a.N)
			for j := range rhs {
				rhs[j] = 1
			}
			lease.Solve(rhs)
			lease.Release()
			i++
		}
	})
	if err := firstErr.Load(); err != nil {
		b.Fatal(err)
	}
	st := pool.Stats()
	if total := st.Hits + st.Misses; total > 0 {
		b.ReportMetric(float64(st.Hits)/float64(total)*100, "hit%")
	}
}

// TestPoolFreshFactorConcurrent runs Pool.FactorCtx from eight goroutines
// on four cold classes at Threads 1 and 2: the first calls miss and factor
// fresh, later ones re-pivot recycled entries through FactorInto, and all
// of them share gp's pooled emission scratch. Every lease must solve to
// the bits of a serial Factor's solution, and accurately. Run under -race
// it checks that no scratch is ever held by two goroutines at once.
func TestPoolFreshFactorConcurrent(t *testing.T) {
	var mats []*sparse.CSC
	for ci, m := range matgen.TableISuite(0.25) {
		switch m.Name {
		case "Power0", "asic_680ks", "Xyce1", "Freescale1":
			mats = append(mats, matgen.TransientStep(m.Gen(), 1, int64(ci)))
		}
	}
	for _, threads := range []int{1, 2} {
		opts := Options{Threads: threads}
		want := make([][]float64, len(mats))
		rhs := make([][]float64, len(mats))
		for k, a := range mats {
			x := make([]float64, a.N)
			for i := range x {
				x[i] = float64(i%7) - 3
			}
			rhs[k] = make([]float64, a.N)
			a.MulVec(rhs[k], x)
			f, err := New(opts).Factor(a)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append([]float64(nil), rhs[k]...)
			if err := f.Solve(want[k]); err != nil {
				t.Fatal(err)
			}
			assertClose(t, want[k], x)
		}
		pool := NewPool(PoolOptions{Options: opts})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < 2*len(mats); it++ {
					k := (g + it) % len(mats)
					lease, err := pool.FactorCtx(context.Background(), mats[k])
					if err != nil {
						t.Error(err)
						return
					}
					got := append([]float64(nil), rhs[k]...)
					err = lease.Solve(got)
					lease.Release()
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[k][i]) {
							t.Errorf("T%d goroutine %d, class %d: x[%d] = %v, serial %v", threads, g, k, i, got[i], want[k][i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if st := pool.Stats(); st.Misses == 0 || st.FactorReuses == 0 {
			t.Fatalf("T%d: %d misses and %d recycled factorizations, want both", threads, st.Misses, st.FactorReuses)
		}
	}
}
