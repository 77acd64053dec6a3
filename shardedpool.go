package basker

import (
	"context"
	"runtime"
)

// ShardedPool spreads a Pool's pattern-keyed cache over N independent
// shards, picked by pattern hash: every operation on one sparsity pattern
// always lands on the same shard, so each shard upholds the full Pool
// contract for the patterns it owns, while patterns from different shards
// never touch the same mutex. This is the serving-layer form of the pool —
// a single Pool serializes all bookkeeping (idle-cache lookups, eviction
// sweeps, statistics) on one mutex, which under many-client mixed-pattern
// load becomes the one serial resource left; sharding divides it.
//
// Semantics relative to a single Pool:
//
//   - Leases are ordinary Leases; Release/Discard return them to the owning
//     shard automatically.
//   - PoolOptions.MaxConcurrentFactors stays a global bound: all shards
//     share one admission semaphore.
//   - PoolOptions.MaxBytes and MaxCachedPatterns are divided evenly across
//     shards (each shard enforces its slice independently), so the
//     aggregate bound is preserved but a single pattern family can use at
//     most its own shard's slice.
//   - Stats sums the per-shard counters; ShardStats exposes the split.
type ShardedPool struct {
	shards []*Pool
	mask   uint64
	// sharedSem notes that every shard aliases one admission semaphore, so
	// aggregated in-flight gauges must not double-count it.
	sharedSem bool
}

// DefaultShards is the shard count NewShardedPool picks for n <= 0: enough
// to keep pool bookkeeping off the critical path at the machine's
// parallelism (the next power of two at or above 2·GOMAXPROCS, at least 8).
func DefaultShards() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return nextPow2(n)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewShardedPool returns a pool of n shards (n <= 0 selects DefaultShards;
// other values are rounded up to a power of two). Every shard uses opts,
// with MaxBytes and MaxCachedPatterns divided across shards and one shared
// MaxConcurrentFactors semaphore. NewShardedPool(1, opts) is a plain Pool
// behind the ShardedPool API — the baseline the load generator compares
// sharding against.
func NewShardedPool(n int, opts PoolOptions) *ShardedPool {
	if n <= 0 {
		n = DefaultShards()
	}
	n = nextPow2(n)
	shardOpts := opts
	// Admission control is installed globally below, not per shard.
	shardOpts.MaxConcurrentFactors = 0
	if opts.MaxBytes > 0 {
		shardOpts.MaxBytes = (opts.MaxBytes + int64(n) - 1) / int64(n)
	}
	if opts.MaxCachedPatterns > 0 {
		per := (opts.MaxCachedPatterns + n - 1) / n
		shardOpts.MaxCachedPatterns = per
	}
	sp := &ShardedPool{
		shards: make([]*Pool, n),
		mask:   uint64(n - 1),
	}
	var sem chan struct{}
	if opts.MaxConcurrentFactors > 0 {
		sem = make(chan struct{}, opts.MaxConcurrentFactors)
		sp.sharedSem = true
	}
	for i := range sp.shards {
		p := NewPool(shardOpts)
		p.sem = sem
		sp.shards[i] = p
	}
	return sp
}

// NumShards reports the shard count.
func (sp *ShardedPool) NumShards() int { return len(sp.shards) }

// shardOf routes a pattern key to its shard. The key's low bits come out of
// an FNV multiply, so a finalizer mix (splitmix64's) spreads them before
// masking; the mapping is a pure function of the pattern key, hence
// deterministic for a given pattern.
func (sp *ShardedPool) shardOf(key uint64) *Pool {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return sp.shards[key&sp.mask]
}

// ShardIndex reports which shard serves matrices with a's sparsity pattern
// — stable for the pool's lifetime (tests and traffic analyses use it; the
// serving layer never needs it).
func (sp *ShardedPool) ShardIndex(a *Matrix) int {
	key := patternKey(a)
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return int(key & sp.mask)
}

// Acquire routes to the pattern's shard; see Pool.Acquire.
func (sp *ShardedPool) Acquire(a *Matrix) (*Lease, error) {
	return sp.AcquireCtx(context.Background(), a)
}

// AcquireCtx routes to the pattern's shard; see Pool.AcquireCtx.
func (sp *ShardedPool) AcquireCtx(ctx context.Context, a *Matrix) (*Lease, error) {
	if err := checkNil(a); err != nil {
		return nil, err
	}
	key := patternKey(a)
	return sp.shardOf(key).acquireKeyed(ctx, a, key)
}

// Factor routes to the pattern's shard; see Pool.Factor.
func (sp *ShardedPool) Factor(a *Matrix) (*Lease, error) {
	if err := checkNil(a); err != nil {
		return nil, err
	}
	key := patternKey(a)
	return sp.shardOf(key).factorKeyed(a, key)
}

// Solve factors (or refactors) a on its pattern's shard and solves
// A·x = b in place; see Pool.Solve.
func (sp *ShardedPool) Solve(a *Matrix, b []float64) error {
	lease, err := sp.Acquire(a)
	if err != nil {
		return err
	}
	err = lease.Solve(b)
	lease.Release()
	return err
}

// SolveMany is ShardedPool.Solve for a batch of right-hand sides.
func (sp *ShardedPool) SolveMany(a *Matrix, bs [][]float64) error {
	lease, err := sp.Acquire(a)
	if err != nil {
		return err
	}
	err = lease.SolveMany(bs)
	lease.Release()
	return err
}

// Stats sums the per-shard counters into one PoolStats. The in-flight
// fresh-factorization gauge reads the shared admission semaphore once
// (every shard aliases it), so it is never double-counted.
func (sp *ShardedPool) Stats() PoolStats {
	var agg PoolStats
	for i, p := range sp.shards {
		s := p.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.FactorReuses += s.FactorReuses
		agg.Evictions += s.Evictions
		agg.MemEvictions += s.MemEvictions
		agg.PoisonEvictions += s.PoisonEvictions
		agg.Discards += s.Discards
		agg.Rejected += s.Rejected
		agg.Canceled += s.Canceled
		agg.QueueWaits += s.QueueWaits
		agg.Idle += s.Idle
		agg.BytesCached += s.BytesCached
		agg.CachedSymbolics += s.CachedSymbolics
		agg.LockWaitSeconds += s.LockWaitSeconds
		agg.LockHoldSeconds += s.LockHoldSeconds
		if !sp.sharedSem || i == 0 {
			agg.InFlightFactors += s.InFlightFactors
		}
	}
	return agg
}

// ShardStats snapshots every shard's own counters, in shard order — the
// load-balance view of the pattern-hash routing.
func (sp *ShardedPool) ShardStats() []PoolStats {
	out := make([]PoolStats, len(sp.shards))
	for i, p := range sp.shards {
		out[i] = p.Stats()
	}
	return out
}
