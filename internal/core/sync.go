package core

import (
	"runtime"
	"sync/atomic"
	"time"
)

// EpochSignals is the point-to-point synchronization fabric of the
// numeric engine's sweeps, built for sweeps that repeat on a fixed
// dependency structure (the factor and refactorization hot loops). It
// keeps a flat array of epoch stamps: slot i is complete for the current
// sweep when its stamp has reached the sweep's epoch, so restarting costs
// one counter increment and no allocation. Waits spin briefly through the
// scheduler and then back off to short sleeps — the Go analogue of the
// paper's write-to-volatile point-to-point synchronization, bounded so
// oversubscribed hosts still make progress.
//
// The fabric is single-sweep-at-a-time: Reset must not race with Set/Wait
// (callers quiesce between sweeps, which the factor and refactor drivers
// guarantee by construction).
type EpochSignals struct {
	slots []atomic.Uint64
	epoch uint64 // written only by Reset, between sweeps
	abort atomic.Uint64
	// ctl, when bound, is the sweep's shared cancellation fabric: every Set
	// bumps its progress heartbeat (the stall watchdog's sample) and every
	// blocked wait polls its cancel flag so an external cancellation
	// unwinds waiters exactly like an internal abort.
	ctl *SweepControl
	// contended counts waits that actually had to block (ablation metric);
	// waitNanos accumulates the wall-clock time of those blocked waits. Both
	// live on the slow path only — the uncontended fast path reads no clock
	// and touches no counter, preserving the zero-overhead contract.
	contended atomic.Int64
	waitNanos atomic.Int64
}

// NewEpochSignals returns a fabric with n slots, ready for the first sweep.
func NewEpochSignals(n int) *EpochSignals {
	return &EpochSignals{slots: make([]atomic.Uint64, n), epoch: 1}
}

// Bind attaches the fabric to a sweep's cancellation control. Must happen
// before workers launch; the binding is stable for the fabric's lifetime.
func (s *EpochSignals) Bind(ctl *SweepControl) { s.ctl = ctl }

// Reset begins a new sweep: all slots become "not done" at once. The
// previous sweep must have fully quiesced.
func (s *EpochSignals) Reset() { s.epoch++ }

// Set marks slot i complete for the current sweep. One producer per slot.
// The progress bump is the watchdog heartbeat — one atomic add per
// completed block, paid only on monitored sweeps so the unarmed fast path
// keeps its pre-cancellation cost.
func (s *EpochSignals) Set(i int) {
	s.slots[i].Store(s.epoch)
	if c := s.ctl; c != nil && c.armed {
		c.progress.Add(1)
	}
}

// FirstPending reports the first slot not yet complete for the current
// sweep (-1 when all are). Safe to call from a monitor goroutine while the
// sweep runs: slots are atomic and the epoch is stable between Resets.
func (s *EpochSignals) FirstPending() int {
	e := s.epoch
	for i := range s.slots {
		if s.slots[i].Load() < e {
			return i
		}
	}
	return -1
}

// Wait blocks until slot i completes, returning false if the sweep was
// aborted (a worker hit an error) so waiters can unwind.
func (s *EpochSignals) Wait(i int) bool {
	e := s.epoch
	if s.slots[i].Load() >= e {
		return true
	}
	_, ok := s.waitSlow(i, e)
	return ok
}

// WaitTimed is Wait returning also the nanoseconds this call spent blocked
// (0 when the slot was already complete) — the per-worker sync-accounting
// hook of the trace layer.
func (s *EpochSignals) WaitTimed(i int) (int64, bool) {
	e := s.epoch
	if s.slots[i].Load() >= e {
		return 0, true
	}
	return s.waitSlow(i, e)
}

func (s *EpochSignals) waitSlow(i int, e uint64) (int64, bool) {
	s.contended.Add(1)
	t0 := time.Now()
	for spins := 0; ; spins++ {
		if s.slots[i].Load() >= e {
			d := time.Since(t0).Nanoseconds()
			s.waitNanos.Add(d)
			return d, true
		}
		if s.abort.Load() == e {
			d := time.Since(t0).Nanoseconds()
			s.waitNanos.Add(d)
			return d, false
		}
		// External cancellation (context expiry, stall watchdog) unblocks
		// waiters through the same false return as an internal abort. The
		// poll lives only on this blocked slow path.
		if c := s.ctl; c != nil && c.flag.Load() {
			d := time.Since(t0).Nanoseconds()
			s.waitNanos.Add(d)
			return d, false
		}
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// WaitNanos reports the cumulative wall-clock nanoseconds of blocked waits,
// accumulated across sweeps.
func (s *EpochSignals) WaitNanos() int64 { return s.waitNanos.Load() }

// Fail aborts the current sweep; pending and future Waits return false
// until the next Reset.
func (s *EpochSignals) Fail() { s.abort.Store(s.epoch) }

// Aborted reports whether the current sweep has been aborted, by a worker
// failure or by external cancellation.
func (s *EpochSignals) Aborted() bool {
	if s.abort.Load() == s.epoch {
		return true
	}
	c := s.ctl
	return c != nil && c.flag.Load()
}

// Contended reports how many waits actually had to block, accumulated
// across sweeps.
func (s *EpochSignals) Contended() int64 { return s.contended.Load() }

// epochBlockFlags adapts EpochSignals to the fine-ND engine's 2D block
// indexing: one resettable completion slot per (i, j) block of the
// hierarchy, shared by the fresh-factorization and refactorization sweeps.
type epochBlockFlags struct {
	n int
	*EpochSignals
}

func newEpochBlockFlags(nblocks int) *epochBlockFlags {
	return &epochBlockFlags{n: nblocks, EpochSignals: NewEpochSignals(nblocks * nblocks)}
}

func (f *epochBlockFlags) idx(i, j int) int   { return i*f.n + j }
func (f *epochBlockFlags) set(i, j int)       { f.Set(f.idx(i, j)) }
func (f *epochBlockFlags) wait(i, j int) bool { return f.Wait(f.idx(i, j)) }
func (f *epochBlockFlags) waitTimed(i, j int) (int64, bool) {
	return f.WaitTimed(f.idx(i, j))
}
func (f *epochBlockFlags) fail() { f.Fail() }
