package basker

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matgen"
)

// shardedPatterns generates n structurally distinct circuit patterns small
// enough for tight test loops.
func shardedPatterns(n int) []*Matrix {
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

// TestShardedPoolConcurrentMixedPatterns drives Acquire/Factor/Solve traffic
// over many patterns from many goroutines — the -race workout of the
// sharded serving path, including the shared admission semaphore.
func TestShardedPoolConcurrentMixedPatterns(t *testing.T) {
	mats := shardedPatterns(12)
	sp := NewShardedPool(8, PoolOptions{
		Options:              Options{Threads: 2, BigBlockMin: 64},
		MaxConcurrentFactors: 4,
		MeterLock:            true,
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
					lease, err = sp.Factor(a) // fresh-pivot traffic
				} else {
					lease, err = sp.Acquire(a) // refactor-or-factor traffic
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

	s := sp.Stats()
	if got := s.Hits + s.Misses + s.FactorReuses; got == 0 {
		t.Fatalf("no pool traffic recorded: %+v", s)
	}
	if s.InFlightFactors != 0 {
		t.Fatalf("admission slots leaked: %d still held", s.InFlightFactors)
	}
	if s.LockHoldSeconds <= 0 {
		t.Fatalf("MeterLock recorded no lock hold time")
	}
}

// TestShardedPoolStatsAggregation pins Stats() to the exact field-by-field
// sum of the per-shard ShardStats() on a quiescent pool.
func TestShardedPoolStatsAggregation(t *testing.T) {
	mats := shardedPatterns(9)
	sp := NewShardedPool(4, PoolOptions{
		Options:   Options{Threads: 1, BigBlockMin: 64},
		MeterLock: true,
	})
	for round := 0; round < 3; round++ {
		for i, a := range mats {
			lease, err := sp.Acquire(scaleValues(a, 1+0.1*float64(round)))
			if err != nil {
				t.Fatalf("pattern %d: %v", i, err)
			}
			lease.Release()
		}
	}
	per := sp.ShardStats()
	var sum PoolStats
	shardsUsed := 0
	for _, s := range per {
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.FactorReuses += s.FactorReuses
		sum.Evictions += s.Evictions
		sum.MemEvictions += s.MemEvictions
		sum.PoisonEvictions += s.PoisonEvictions
		sum.Discards += s.Discards
		sum.Rejected += s.Rejected
		sum.Canceled += s.Canceled
		sum.QueueWaits += s.QueueWaits
		sum.InFlightFactors += s.InFlightFactors
		sum.Idle += s.Idle
		sum.BytesCached += s.BytesCached
		sum.CachedSymbolics += s.CachedSymbolics
		sum.LockWaitSeconds += s.LockWaitSeconds
		sum.LockHoldSeconds += s.LockHoldSeconds
		if s.Hits+s.Misses > 0 {
			shardsUsed++
		}
	}
	got := sp.Stats()
	// The aggregate's lock-time fields keep accumulating with every Stats
	// call (Stats itself takes each shard's lock), so compare counters
	// exactly and lock seconds with a tolerance.
	if got.Hits != sum.Hits || got.Misses != sum.Misses || got.Idle != sum.Idle ||
		got.BytesCached != sum.BytesCached || got.CachedSymbolics != sum.CachedSymbolics ||
		got.FactorReuses != sum.FactorReuses || got.Evictions != sum.Evictions ||
		got.MemEvictions != sum.MemEvictions || got.InFlightFactors != sum.InFlightFactors {
		t.Fatalf("aggregated stats %+v != per-shard sum %+v", got, sum)
	}
	if got.LockHoldSeconds < sum.LockHoldSeconds {
		t.Fatalf("aggregated lock hold %.9fs < per-shard sum %.9fs", got.LockHoldSeconds, sum.LockHoldSeconds)
	}
	if got.Misses != uint64(len(mats)) {
		t.Fatalf("got %d misses, want one per pattern (%d)", got.Misses, len(mats))
	}
	if got.Hits != uint64(2*len(mats)) {
		t.Fatalf("got %d hits, want two per pattern (%d)", got.Hits, 2*len(mats))
	}
	if shardsUsed < 2 {
		t.Fatalf("9 patterns landed on %d shard(s); want the hash to spread them", shardsUsed)
	}
}

// TestShardedPoolShardDeterminism pins the routing: one pattern always maps
// to one shard, same-pattern different-values matrices included, and shard
// counts round up to powers of two.
func TestShardedPoolShardDeterminism(t *testing.T) {
	if got := NewShardedPool(5, PoolOptions{}).NumShards(); got != 8 {
		t.Fatalf("NewShardedPool(5).NumShards() = %d, want 8 (power-of-two roundup)", got)
	}
	if got := NewShardedPool(1, PoolOptions{}).NumShards(); got != 1 {
		t.Fatalf("NewShardedPool(1).NumShards() = %d, want 1", got)
	}
	mats := shardedPatterns(10)
	sp := NewShardedPool(8, PoolOptions{Options: Options{Threads: 1}})
	for i, a := range mats {
		want := sp.ShardIndex(a)
		if want < 0 || want >= sp.NumShards() {
			t.Fatalf("pattern %d: shard index %d out of range", i, want)
		}
		for rep := 0; rep < 3; rep++ {
			if got := sp.ShardIndex(a); got != want {
				t.Fatalf("pattern %d: shard index changed %d -> %d", i, want, got)
			}
		}
		if got := sp.ShardIndex(scaleValues(a, 3.7)); got != want {
			t.Fatalf("pattern %d: same pattern with new values re-routed %d -> %d", i, want, got)
		}
	}
}

// TestShardedPoolHitPathZeroAlloc pins the sharded steady-state hit path —
// pattern hash, shard routing, idle-cache checkout, no-change Refactor,
// lease handout and release — at zero allocations per operation.
func TestShardedPoolHitPathZeroAlloc(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{
		N: 160, BTFPct: 50, Blocks: 8, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 5,
	})
	sp := NewShardedPool(8, PoolOptions{Options: Options{Threads: 1, BigBlockMin: 64}})
	// Warm: first acquire factors, second settles Refactor's change-tracking
	// state.
	for i := 0; i < 2; i++ {
		lease, err := sp.Acquire(a)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		lease, err := sp.Acquire(a)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	})
	if allocs != 0 {
		t.Fatalf("sharded steady-state hit path allocates %.2f allocs/op, want 0", allocs)
	}
}
