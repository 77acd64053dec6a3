package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Signals is the point-to-point synchronization fabric shared by the
// numeric engine and the trisolve subsystem: a flat array of one-shot
// completion signals plus an abort channel. A producer signals exactly once
// per slot; consumers wait only on the slots they need — the Go analogue of
// the paper's write-to-volatile point-to-point synchronization. Signals are
// implemented as closed channels so waiting goroutines consume no CPU even
// when the host has fewer cores than workers.
type Signals struct {
	done  []chan struct{}
	abort chan struct{}
	// cancel is the external cancel source (a SweepControl's channel face):
	// unlike abort, which a worker closes on numeric failure, cancel is
	// fired from outside the sweep (context expiry, stall watchdog). A nil
	// channel never fires, so unbound fabrics pay one extra select arm.
	cancel <-chan struct{}
	once   sync.Once
	// contended counts waits that actually had to block (ablation metric);
	// waitNanos accumulates the wall-clock time those blocked waits cost
	// (the fast path pays nothing — uncontended waits read no clock).
	contended atomic.Int64
	waitNanos atomic.Int64
}

// NewSignals returns a fabric with n one-shot completion slots.
func NewSignals(n int) *Signals {
	s := &Signals{
		done:  make([]chan struct{}, n),
		abort: make(chan struct{}),
	}
	for i := range s.done {
		s.done[i] = make(chan struct{})
	}
	return s
}

// Set marks slot i complete. Each slot has exactly one producer.
func (s *Signals) Set(i int) { close(s.done[i]) }

// BindCancel attaches an external cancel source: a blocked Wait returns
// false when ch fires, exactly as it does for an internal abort. Must be
// called before any waiter blocks.
func (s *Signals) BindCancel(ch <-chan struct{}) { s.cancel = ch }

// Wait blocks until slot i is complete. It returns false if the
// computation has been aborted (another worker hit an error) or cancelled
// from outside, so waiters can unwind instead of deadlocking.
func (s *Signals) Wait(i int) bool {
	ch := s.done[i]
	select {
	case <-ch:
		return true
	default:
	}
	s.contended.Add(1)
	t0 := time.Now()
	select {
	case <-ch:
		s.waitNanos.Add(time.Since(t0).Nanoseconds())
		return true
	case <-s.abort:
		s.waitNanos.Add(time.Since(t0).Nanoseconds())
		return false
	case <-s.cancel:
		s.waitNanos.Add(time.Since(t0).Nanoseconds())
		return false
	}
}

// WaitNanos reports the cumulative wall-clock nanoseconds of blocked waits.
func (s *Signals) WaitNanos() int64 { return s.waitNanos.Load() }

// Fail aborts the whole parallel region.
func (s *Signals) Fail() { s.once.Do(func() { close(s.abort) }) }

// Contended reports how many waits actually had to block.
func (s *Signals) Contended() int64 { return s.contended.Load() }

func (s *Signals) aborted() bool {
	select {
	case <-s.abort:
		return true
	default:
		return false
	}
}

// EpochSignals is the resettable variant of the Signals fabric, built for
// sweeps that repeat on a fixed dependency structure (the refactorization
// hot loop and the pooled parallel block solve). Where Signals allocates
// one-shot channels per sweep, EpochSignals keeps a flat array of epoch
// stamps: slot i is complete for the current sweep when its stamp has
// reached the sweep's epoch, so restarting costs one counter increment and
// no allocation. Waits spin briefly through the scheduler and then back off
// to short sleeps — the Go analogue of the paper's write-to-volatile
// point-to-point synchronization, bounded so oversubscribed hosts still
// make progress.
//
// The fabric is single-sweep-at-a-time: Reset must not race with Set/Wait
// (callers quiesce between sweeps, which the refactor and solve drivers
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

// Len reports the number of slots.
func (s *EpochSignals) Len() int { return len(s.slots) }

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
// hierarchy, shared by the fresh-factorization and refactorization sweeps
// (the channel-based Signals fabric remains for one-shot consumers like the
// trisolve dependency scheduler).
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
