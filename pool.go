package basker

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// Pool is a pattern-keyed cache of Factorizations: the serving layer for
// workloads where many goroutines stamp matrices with a small set of
// recurring sparsity patterns (one per circuit/scenario family) and solve
// concurrently. Acquire hands each caller a private Factorization for its
// matrix — refreshed with Refactor when a cached factorization with the
// same pattern is idle (Refactor finds the changed columns itself, so only
// the blocks whose values actually differ are reworked), or built with a
// full Factor on a miss — so solves never contend and transient sequences
// hit the partial refresh almost always.
//
// Typical serving loop:
//
//	lease, err := pool.Acquire(a) // Refactor hit or Factor miss
//	if err != nil { ... }
//	lease.Solve(b)
//	lease.Release() // return the factorization for the next same-pattern call
//
// Refactor-vs-Solve exclusion: a Refactor must never run concurrently with
// solves on the same Factorization. The Pool upholds the contract
// structurally — Acquire refactors an entry only while it is idle (checked
// out of the cache, not leased to anyone), and a leased factorization is
// private to its holder until Release — so callers only have to keep the
// rule within their own lease: finish solving before releasing, and never
// call Refactor on a leased factorization they are concurrently solving
// with. If a cached entry's Refactor fails (new values defeat every reused
// pivot), the entry is discarded and the Acquire falls back to a fresh
// Factor, so callers never observe a half-refreshed factorization.
//
// A Pool serializes its bookkeeping (never the numeric work) on one mutex
// and meters it: PoolStats.LockWaitSeconds/LockHoldSeconds say how much of
// the serving time that mutex costs.
type Pool struct {
	solver   *Solver
	maxIdle  int
	maxSyms  int
	maxAge   time.Duration
	maxBytes int64
	// now is the clock (replaceable by tests of the age-based eviction).
	now func() time.Time

	// leases recycles Lease headers so the steady-state hit path allocates
	// nothing (a released lease is cleared before reuse, so stale caller
	// pointers fail fast on nil instead of aliasing the next holder).
	leases sync.Pool

	mu       sync.Mutex
	idle     map[uint64][]*poolEntry
	syms     map[uint64][]*symEntry
	symCount int
	hits     uint64
	misses   uint64
	// factorReuses counts fresh factorizations that recycled a cached
	// entry's storage (the Pool.Factor fast path and re-pivoting fallbacks).
	factorReuses uint64
	// evictions counts idle factorizations dropped by the capacity cap or
	// the idle-age limit; memEvictions counts drops forced by the MaxBytes
	// memory bound.
	evictions    uint64
	memEvictions uint64
	// bytesCached is the estimated footprint of all idle entries (the sum
	// of their entryBytes at release time).
	bytesCached int64
	// poisonEvictions counts released factorizations dropped because a
	// failed or panicked refresh left their numerics poisoned; discards
	// counts leases the holder dropped through Lease.Discard.
	poisonEvictions uint64
	discards        uint64
	// rejected counts AcquireCtx calls turned away because their context
	// was already expired at entry; canceled counts callers whose context
	// fired while queued for a fresh-factorization slot; queueWaits counts
	// fresh factorizations that had to block for a slot.
	rejected   uint64
	canceled   uint64
	queueWaits uint64
	// lockWaitNs/lockHoldNs accumulate mutex wait and hold time (the
	// serving layer's contention meter); lockT0 is the running section's
	// acquisition instant.
	lockWaitNs int64
	lockHoldNs int64
	lockT0     time.Time

	// sem is the fresh-factorization admission semaphore (nil = unlimited):
	// each in-flight full numeric factorization holds one slot, bounding
	// the memory and CPU burst a miss storm can impose on the serving
	// layer. Refactor fast paths are never gated.
	sem chan struct{}
}

type poolEntry struct {
	f   *Factorization
	key uint64
	// idleSince is when the entry last entered the idle cache; bytes is its
	// estimated footprint, computed at that moment (the factorization's
	// |L+U| can drift across refreshes).
	idleSince time.Time
	bytes     int64
}

// entryBytes estimates one cached factorization's memory footprint from its
// |L+U|: 8 bytes of value plus 8 of row index per stored factor entry, plus
// another 8 amortizing the permuted input copy, block inputs and gather
// maps, and ~48 bytes per row of permutation/scratch/pointer vectors. An
// estimate — Go gives no exact per-object accounting — but it is monotone
// in the quantity that matters (factor fill), which is what a memory bound
// needs.
func entryBytes(f *Factorization) int64 {
	return 24*int64(f.num.NnzLU()) + 48*int64(f.num.Sym.N)
}

// symEntry caches one sparsity pattern's symbolic analysis, so repeated
// full factorizations of a known pattern skip Analyze (orderings, BTF,
// partition, entry maps) entirely. Exact verification behind the hash key
// delegates to the analysis' own recorded pattern (Symbolic.PatternMatches
// — the single implementation every pattern-keyed fast path shares), so no
// second copy of the pattern is retained.
type symEntry struct {
	sym *core.Symbolic
}

func (e *symEntry) matches(a *Matrix) bool { return e.sym.PatternMatches(a) }

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Options configures the underlying solver used for cache misses.
	Options
	// MaxIdlePerPattern caps how many idle factorizations are retained per
	// sparsity pattern; 0 selects the default (16), negative is unlimited.
	MaxIdlePerPattern int
	// MaxCachedPatterns caps how many distinct sparsity patterns retain a
	// cached symbolic analysis (each holds orderings plus the gather plan,
	// several times the matrix's index footprint); 0 selects the default
	// (32), negative is unlimited. Evicting a pattern only drops the cached
	// analysis — factorizations already built with it remain valid — so a
	// workload whose patterns evolve over time cannot grow the pool's
	// memory without bound.
	MaxCachedPatterns int
	// MaxIdleAge drops idle factorizations that have not been leased for
	// this long, so a pattern family that goes quiet releases its numeric
	// storage instead of pinning it until the capacity cap evicts it.
	// 0 disables age-based eviction. Expiry is enforced lazily on the
	// pool's own operations (no background goroutine).
	MaxIdleAge time.Duration
	// MaxBytes caps the estimated aggregate footprint of idle cached
	// factorizations (per-entry footprints are derived from |L+U|; see
	// PoolStats.BytesCached). When a Release pushes the pool over the
	// bound, the oldest idle entries are evicted until it fits
	// (PoolStats.MemEvictions), so a burst of large or many-pattern traffic
	// converges back under the bound as leases drain. Leased factorizations
	// are not counted — the bound governs what the pool retains, not what
	// callers hold. 0 disables the bound.
	MaxBytes int64
	// MaxConcurrentFactors caps how many fresh numeric factorizations (the
	// expensive miss path and the re-pivoting fallbacks; never the
	// Refactor fast path) run concurrently. Excess callers queue for a
	// slot — honouring their context when they came through AcquireCtx —
	// so a burst of cold patterns degrades into an orderly queue instead
	// of a memory and CPU stampede. 0 disables admission control.
	MaxConcurrentFactors int
	// MeterLock is ignored: the pool mutex is always metered
	// (PoolStats.LockWaitSeconds/LockHoldSeconds).
	//
	// Deprecated: kept so that callers which still set it (the benchmark
	// harness under bench/) compile.
	MeterLock bool
}

// ShardedPool is Pool: one pool serves every pattern.
//
// Deprecated: use Pool; kept for callers that still name it (the benchmark
// harness under bench/).
type ShardedPool = Pool

// NewShardedPool ignores its shard count and returns NewPool(opts).
//
// Deprecated: use NewPool; kept for callers that still name it (the
// benchmark harness under bench/).
func NewShardedPool(_ int, opts PoolOptions) *Pool { return NewPool(opts) }

// NewPool returns an empty factorization pool.
func NewPool(opts PoolOptions) *Pool {
	maxIdle := opts.MaxIdlePerPattern
	switch {
	case maxIdle == 0:
		maxIdle = 16
	case maxIdle < 0:
		maxIdle = 1 << 30
	}
	maxSyms := opts.MaxCachedPatterns
	switch {
	case maxSyms == 0:
		maxSyms = 32
	case maxSyms < 0:
		maxSyms = 1 << 30
	}
	var sem chan struct{}
	if opts.MaxConcurrentFactors > 0 {
		sem = make(chan struct{}, opts.MaxConcurrentFactors)
	}
	return &Pool{
		solver:   New(opts.Options),
		maxIdle:  maxIdle,
		maxSyms:  maxSyms,
		maxAge:   opts.MaxIdleAge,
		maxBytes: opts.MaxBytes,
		now:      time.Now,
		idle:     map[uint64][]*poolEntry{},
		syms:     map[uint64][]*symEntry{},
		sem:      sem,
	}
}

// lock acquires the pool mutex, accounting wait and hold time (lockT0 is
// protected by the mutex itself). Three clock reads per section, no
// allocation, so the zero-alloc hit path holds.
func (p *Pool) lock() {
	t0 := time.Now()
	p.mu.Lock()
	now := time.Now()
	p.lockWaitNs += now.Sub(t0).Nanoseconds()
	p.lockT0 = now
}

func (p *Pool) unlock() {
	p.lockHoldNs += time.Since(p.lockT0).Nanoseconds()
	p.mu.Unlock()
}

// acquireSlot admits one fresh factorization, blocking for a semaphore
// slot when the cap is reached. A ctx that fires while queued abandons the
// wait with the typed cancellation error.
func (p *Pool) acquireSlot(ctx context.Context) error {
	if p.sem == nil {
		return nil
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	default:
	}
	p.lock()
	p.queueWaits++
	p.unlock()
	if ctx == nil || ctx.Done() == nil {
		p.sem <- struct{}{}
		return nil
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		p.lock()
		p.canceled++
		p.unlock()
		return core.CancelCause(ctx)
	}
}

func (p *Pool) releaseSlot() {
	if p.sem != nil {
		<-p.sem
	}
}

// evictExpiredLocked drops idle entries whose idle age exceeds MaxIdleAge,
// across every pattern bucket: a pattern family that has gone quiet is
// never touched by its own key again, so expiry must piggyback on whatever
// pool traffic still flows (bucket counts are small — one per live pattern
// family). Caller holds p.mu.
func (p *Pool) evictExpiredLocked() {
	if p.maxAge <= 0 {
		return
	}
	cutoff := p.now().Add(-p.maxAge)
	for key, bucket := range p.idle {
		kept := bucket[:0]
		for _, e := range bucket {
			if e.idleSince.Before(cutoff) {
				p.evictions++
				p.bytesCached -= e.bytes
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			delete(p.idle, key)
			continue
		}
		p.idle[key] = kept
	}
}

// evictOverBudgetLocked drops oldest-idle entries until the estimated
// cached footprint fits under MaxBytes. Oldest-first matches the age
// eviction's bias: the entries least likely to be leased again go first.
// Caller holds p.mu.
func (p *Pool) evictOverBudgetLocked() {
	if p.maxBytes <= 0 {
		return
	}
	for p.bytesCached > p.maxBytes {
		var oldestKey uint64
		oldestIdx := -1
		var oldest time.Time
		for key, bucket := range p.idle {
			for i, e := range bucket {
				if oldestIdx < 0 || e.idleSince.Before(oldest) {
					oldestKey, oldestIdx, oldest = key, i, e.idleSince
				}
			}
		}
		if oldestIdx < 0 {
			return // nothing idle left to evict
		}
		bucket := p.idle[oldestKey]
		e := bucket[oldestIdx]
		last := len(bucket) - 1
		bucket[oldestIdx] = bucket[last]
		if last == 0 {
			delete(p.idle, oldestKey)
		} else {
			p.idle[oldestKey] = bucket[:last]
		}
		p.bytesCached -= e.bytes
		p.memEvictions++
	}
}

// removeIdleLocked takes one same-pattern entry out of the idle cache,
// maintaining the footprint account. Caller holds p.mu.
func (p *Pool) removeIdleLocked(key uint64, a *Matrix) *poolEntry {
	bucket := p.idle[key]
	for i, e := range bucket {
		if samePattern(e, a) {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			p.idle[key] = bucket[:last]
			p.bytesCached -= e.bytes
			return e
		}
	}
	return nil
}

// Lease is a Factorization checked out of a Pool. Release returns it; a
// leased factorization is private to the caller until then.
type Lease struct {
	*Factorization
	pool  *Pool
	entry *poolEntry
}

// newLease recycles a Lease header from the pool's free list.
func (p *Pool) newLease(f *Factorization, e *poolEntry) *Lease {
	l, _ := p.leases.Get().(*Lease)
	if l == nil {
		l = &Lease{}
	}
	l.Factorization, l.pool, l.entry = f, p, e
	return l
}

// detach clears the lease (so any retained pointer fails fast instead of
// aliasing the header's next holder) and recycles it.
func (l *Lease) detach() (*Pool, *poolEntry) {
	p, e := l.pool, l.entry
	l.Factorization, l.pool, l.entry = nil, nil, nil
	p.leases.Put(l)
	return p, e
}

// Acquire returns a factorization of a, reusing an idle same-pattern
// factorization via Refactor when one is cached and running a full Factor
// otherwise. Safe for concurrent use; the numeric work happens outside the
// pool lock.
func (p *Pool) Acquire(a *Matrix) (*Lease, error) {
	return p.AcquireCtx(context.Background(), a)
}

// AcquireCtx is Acquire with deadline-aware admission: a ctx already
// expired at entry is rejected before any numeric work (PoolStats.Rejected),
// a ctx that fires while queued for a fresh-factorization slot abandons the
// queue (PoolStats.Canceled), and a ctx cancelled mid-sweep aborts the
// refresh or factorization itself, returning ErrCanceled or
// ErrDeadlineExceeded. A cached entry whose refresh was cancelled mid-sweep
// is discarded (its numerics are unspecified), so later Acquires of the
// pattern rebuild cleanly.
func (p *Pool) AcquireCtx(ctx context.Context, a *Matrix) (*Lease, error) {
	if err := checkMatrix(a); err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Err() != nil {
		p.lock()
		p.rejected++
		p.unlock()
		return nil, core.CancelCause(ctx)
	}
	// The pool is an API boundary like Solver.Factor: the same opt-in
	// validation screen guards it, so malformed or non-finite input reports
	// ErrBadInput/ErrNotFinite instead of corrupting a cached entry.
	if err := validateInput(a, p.solver.opts.ValidateInputs); err != nil {
		return nil, err
	}
	key := patternKey(a)
	p.lock()
	p.evictExpiredLocked()
	entry := p.removeIdleLocked(key, a)
	p.unlock()

	if entry != nil {
		// Refactor finds the change itself: transient lease holders whose
		// steps perturb a few stamps get the partial sweep, fully-changed
		// matrices the full one.
		if err := entry.f.num.RefactorCtx(ctx, a); err != nil {
			if isAbortErr(err) {
				// Cancelled or stalled mid-refresh: the entry's numerics are
				// unspecified, so drop the storage rather than fall through
				// to an even more expensive fresh factorization.
				return nil, wrapErr(err)
			}
			// A same-pattern matrix whose values defeat the cached pivot
			// sequence: fall back to a fresh factorization with new pivots,
			// recycling the entry's storage; if even that pivots into trouble,
			// retry once with full partial pivoting before giving up on the
			// recycled storage. Fresh-pivot work honours the admission cap.
			if err := p.acquireSlot(ctx); err != nil {
				return nil, err
			}
			if err := entry.f.num.FactorIntoCtx(ctx, a); err != nil {
				if isAbortErr(err) {
					p.releaseSlot()
					return nil, wrapErr(err)
				}
				if err := entry.f.num.FactorIntoTol(a, 1.0); err != nil {
					p.releaseSlot()
					return p.factorMissCtx(ctx, a, key) // storage discarded
				}
			}
			p.releaseSlot()
			p.lock()
			p.factorReuses++
			p.unlock()
			return p.newLease(entry.f, entry), nil
		}
		p.lock()
		p.hits++
		p.unlock()
		return p.newLease(entry.f, entry), nil
	}
	return p.factorMissCtx(ctx, a, key)
}

// isAbortErr reports whether err is an external-abort verdict (cancel,
// deadline, stall) rather than a numeric failure worth a fallback.
func isAbortErr(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrStalled)
}

// Factor returns a freshly pivoted factorization of a through the pool: the
// numeric factorization runs from scratch (unlike Acquire it never reuses a
// cached pivot sequence — the escape hatch when values have drifted far
// from the ones that chose the pivots), but both the symbolic analysis and,
// when an idle same-pattern factorization is cached, its entire storage are
// reused, so repeated same-pattern Factor calls allocate almost nothing.
func (p *Pool) Factor(a *Matrix) (*Lease, error) {
	if err := checkMatrix(a); err != nil {
		return nil, err
	}
	if err := validateInput(a, p.solver.opts.ValidateInputs); err != nil {
		return nil, err
	}
	key := patternKey(a)
	p.lock()
	p.evictExpiredLocked()
	entry := p.removeIdleLocked(key, a)
	p.unlock()
	if entry != nil {
		if err := p.acquireSlot(nil); err != nil {
			return nil, err
		}
		err := entry.f.num.FactorInto(a)
		p.releaseSlot()
		if err != nil {
			// Singular (or otherwise unusable) values: the recycled entry's
			// numerics are unspecified now, so drop it and surface the error
			// through the ordinary full-factor path.
			return p.factorMiss(a, key)
		}
		p.lock()
		p.factorReuses++
		p.unlock()
		return p.newLease(entry.f, entry), nil
	}
	return p.factorMiss(a, key)
}

// symFor returns the cached symbolic analysis for a's pattern, creating and
// memoizing it on first use. The analysis itself runs outside the pool lock.
func (p *Pool) symFor(a *Matrix, key uint64) (*core.Symbolic, error) {
	p.lock()
	for _, e := range p.syms[key] {
		if e.matches(a) {
			p.unlock()
			return e.sym, nil
		}
	}
	p.unlock()
	sym, err := core.Analyze(a, p.solver.opts)
	if err != nil {
		return nil, err
	}
	p.lock()
	// Double-checked insert: concurrent first factorizations of one pattern
	// may race to Analyze; keep only the winner's entry.
	for _, e := range p.syms[key] {
		if e.matches(a) {
			p.unlock()
			return e.sym, nil
		}
	}
	for p.symCount >= p.maxSyms {
		// Evict an arbitrary cached pattern (map order); live
		// factorizations keep their own Symbolic pointers and stay valid.
		evicted := false
		for k, bucket := range p.syms {
			if len(bucket) > 1 {
				p.syms[k] = bucket[:len(bucket)-1]
			} else {
				delete(p.syms, k)
			}
			p.symCount--
			evicted = true
			break
		}
		if !evicted {
			break
		}
	}
	p.syms[key] = append(p.syms[key], &symEntry{sym: sym})
	p.symCount++
	p.unlock()
	return sym, nil
}

func (p *Pool) factorMiss(a *Matrix, key uint64) (*Lease, error) {
	return p.factorMissCtx(context.Background(), a, key)
}

func (p *Pool) factorMissCtx(ctx context.Context, a *Matrix, key uint64) (*Lease, error) {
	p.lock()
	p.misses++
	p.unlock()
	sym, err := p.symFor(a, key)
	if err != nil {
		return nil, wrapErr(err)
	}
	if err := p.acquireSlot(ctx); err != nil {
		return nil, err
	}
	num, err := core.FactorCtx(ctx, a, sym)
	p.releaseSlot()
	if err != nil {
		return nil, wrapErr(err)
	}
	f := newFactorization(num)
	// Verification data is the analysis' own pattern copy (never the
	// caller's buffers), so a caller that restamps its matrix in place
	// cannot corrupt the check behind the hash key.
	entry := &poolEntry{f: f, key: key}
	return p.newLease(f, entry), nil
}

// Release returns the lease's factorization to the pool for reuse by the
// next same-pattern Acquire. Releasing twice is a bug; the factorization
// must not be used after Release.
func (l *Lease) Release() {
	p, entry := l.detach()
	if entry.f.num.Poisoned() {
		// A failed refresh left the numerics unspecified; never hand such an
		// entry to the next Acquire — drop it so the pattern's next lease
		// rebuilds from scratch.
		p.lock()
		p.poisonEvictions++
		p.unlock()
		return
	}
	bytes := entryBytes(entry.f)
	p.lock()
	p.evictExpiredLocked()
	if len(p.idle[entry.key]) < p.maxIdle {
		entry.idleSince = p.now()
		entry.bytes = bytes
		p.idle[entry.key] = append(p.idle[entry.key], entry)
		p.bytesCached += bytes
		p.evictOverBudgetLocked()
	} else {
		p.evictions++
	}
	p.unlock()
}

// Discard drops the lease's factorization instead of returning it to the
// pool — for holders with reason to distrust the entry beyond what the
// pool can see itself (a served solution that came back non-finite, a
// failed application-level check). The pattern's next Acquire rebuilds
// fresh. The factorization must not be used after Discard.
func (l *Lease) Discard() {
	p, _ := l.detach()
	p.lock()
	p.discards++
	p.unlock()
}

// Solve factors (or refactors) a and solves A·x = b in place — the
// one-call serving path: Acquire, Solve, Release.
func (p *Pool) Solve(a *Matrix, b []float64) error {
	lease, err := p.Acquire(a)
	if err != nil {
		return err
	}
	err = lease.Solve(b)
	lease.Release()
	return err
}

// SolveMany is Pool.Solve for a batch of right-hand sides.
func (p *Pool) SolveMany(a *Matrix, bs [][]float64) error {
	lease, err := p.Acquire(a)
	if err != nil {
		return err
	}
	err = lease.SolveMany(bs)
	lease.Release()
	return err
}

// PoolStats reports cache effectiveness counters.
type PoolStats struct {
	// Hits counts Acquires served through the Refactor fast path.
	Hits uint64
	// Misses counts acquisitions that ran a full Factor with freshly
	// allocated storage (first sight of a pattern, or a recycled entry
	// whose FactorInto failed).
	Misses uint64
	// FactorReuses counts freshly pivoted factorizations that recycled a
	// cached entry's storage: Pool.Factor fast paths and the re-pivoting
	// fallback inside Acquire.
	FactorReuses uint64
	// Evictions counts idle factorizations dropped by the capacity cap or
	// the idle-age limit.
	Evictions uint64
	// MemEvictions counts idle factorizations dropped by the MaxBytes
	// memory bound.
	MemEvictions uint64
	// PoisonEvictions counts released factorizations discarded because a
	// failed or panicked refresh poisoned their numerics.
	PoisonEvictions uint64
	// Discards counts leases dropped by their holders via Lease.Discard.
	Discards uint64
	// Rejected counts AcquireCtx calls turned away because their context
	// was already expired at entry (no numeric work was attempted).
	Rejected uint64
	// Canceled counts callers whose context fired while they were queued
	// for a fresh-factorization admission slot.
	Canceled uint64
	// QueueWaits counts fresh factorizations that found the admission
	// semaphore full and had to queue (PoolOptions.MaxConcurrentFactors).
	QueueWaits uint64
	// InFlightFactors is the number of admission-semaphore slots currently
	// held by in-flight fresh factorizations (0 when admission control is
	// off). A pool at rest must report 0 — cancelled or failed callers
	// return their slots.
	InFlightFactors int
	// Idle counts factorizations currently cached.
	Idle int
	// BytesCached is the estimated footprint of the idle cache (per-entry
	// |L+U|-derived estimates; see PoolOptions.MaxBytes).
	BytesCached int64
	// CachedSymbolics counts sparsity patterns holding a cached symbolic
	// analysis.
	CachedSymbolics int
	// LockWaitSeconds and LockHoldSeconds accumulate the pool mutex's wait
	// time and total hold time — the direct measurement of how much the
	// pool's one bookkeeping mutex costs its callers.
	LockWaitSeconds float64
	LockHoldSeconds float64
}

// Stats snapshots the pool counters. Age-based eviction is lazy, so idle
// counts may include entries that would expire on their next touch.
func (p *Pool) Stats() PoolStats {
	inFlight := 0
	if p.sem != nil {
		inFlight = len(p.sem)
	}
	p.lock()
	idle := 0
	for _, b := range p.idle {
		idle += len(b)
	}
	s := PoolStats{
		Hits:            p.hits,
		Misses:          p.misses,
		FactorReuses:    p.factorReuses,
		Evictions:       p.evictions,
		MemEvictions:    p.memEvictions,
		PoisonEvictions: p.poisonEvictions,
		Discards:        p.discards,
		Rejected:        p.rejected,
		Canceled:        p.canceled,
		QueueWaits:      p.queueWaits,
		InFlightFactors: inFlight,
		Idle:            idle,
		BytesCached:     p.bytesCached,
		CachedSymbolics: p.symCount,
		LockWaitSeconds: float64(p.lockWaitNs) / 1e9,
		LockHoldSeconds: float64(p.lockHoldNs) / 1e9,
	}
	p.unlock()
	return s
}

// patternKey hashes the sparsity pattern of a (dimensions, column
// pointers, row indices) with word-at-a-time FNV-1a — allocation-free, so
// the steady-state hit path stays zero-alloc. Matching keys are verified
// entry-by-entry before the Refactor fast path is taken, so hash quality
// only affects bucketing, never correctness.
func patternKey(a *Matrix) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(a.M)) * prime64
	h = (h ^ uint64(a.N)) * prime64
	for _, c := range a.Colptr {
		h = (h ^ uint64(c)) * prime64
	}
	for _, r := range a.Rowidx {
		h = (h ^ uint64(r)) * prime64
	}
	return h
}

// samePattern verifies the caller's matrix against the entry's analyzed
// pattern (pool entries are only ever built through a symbolic analysis of
// their own pattern, so the analysis' recorded pattern is the entry's).
func samePattern(e *poolEntry, a *Matrix) bool {
	return e.f.num.Sym.PatternMatches(a)
}
