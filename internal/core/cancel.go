package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the cooperative-cancellation and stall-watchdog layer of the
// numeric engine. Every parallel sweep (fresh factor, refactor, partial
// refactor, panel-parallel batch solve) shares one design:
//
//   - a SweepControl carried by the sweep's owner (the Numeric, or the
//     trisolve workspace) holds a cancel flag every synchronization fabric
//     polls on its blocked slow path and a progress counter every completion
//     signal bumps;
//   - a SweepMonitor goroutine — armed only when the caller supplied a
//     cancellable context or a positive Options.StallTimeout — watches the
//     context and the progress counter, and cancels the sweep when the
//     context fires (ErrCanceled/ErrDeadlineExceeded) or when no completion
//     signal lands for a full stall timeout (ErrStalled, naming the first
//     pending block and its worker lane);
//   - workers poll the cancel flag between blocks (and, inside long
//     Gilbert–Peierls kernels, every few hundred columns via gp.Options.Poll),
//     so a cancelled sweep unwinds through the same poisoned-but-recoverable
//     machinery as a worker panic: the driver returns the typed error, the
//     numeric is poisoned, and the next refresh recovers. A worker whose
//     kernel returns into a cancelled sweep only releases its completion
//     slot: no scheduler hook, fault point or trace event runs for a sweep
//     nobody waits for.
//
// Cancellation is cooperative: a worker that is truly wedged inside a
// kernel (the faultinject.PointStall chaos case) cannot be pre-empted, so a
// cancelled factor/refactor sweep returns early while the straggler drains
// in the background — sweepControl.drain() at every sweep entry waits for
// such stragglers before any shared state is touched again. Batch solves
// instead always join fully, because their workers write into the
// caller-owned right-hand side. When every check lands on a blocked slow
// path or is amortized per block, the zero-allocation and ~0-overhead
// contracts of the uncancelled fast paths survive untouched.

// ErrCanceled is returned when a context-accepting entry point's context is
// cancelled mid-sweep. It wraps context.Canceled, so callers can match
// either error.
var ErrCanceled = fmt.Errorf("basker: operation canceled: %w", context.Canceled)

// ErrDeadlineExceeded is returned when a context deadline fires mid-sweep.
// It wraps context.DeadlineExceeded.
var ErrDeadlineExceeded = fmt.Errorf("basker: deadline exceeded: %w", context.DeadlineExceeded)

// ErrStalled is returned when the stall watchdog aborts a sweep that made
// no progress for Options.StallTimeout. The concrete error is a *StallError
// carrying the sweep name and the stalled block/lane; match the class with
// errors.Is(err, ErrStalled) and the diagnostics with errors.As.
var ErrStalled = errors.New("basker: sweep stalled")

// errSweepAborted is the internal marker a cancelled worker records for its
// block; the driver discards it in favour of the monitor's typed error.
var errSweepAborted = errors.New("core: sweep aborted by cancellation")

// StallError reports a sweep the watchdog had to abort: no completion
// signal landed for Idle (at least the configured StallTimeout). Block is
// the first coarse block still pending when the watchdog fired and Lane the
// fine-BTF worker that took it, in [0, Threads) (0, the caller's goroutine,
// in a serial sweep; -1 when the block belongs to a cooperative fine-ND
// team, when no worker had taken it yet, or when no pending block could be
// named).
type StallError struct {
	Sweep string
	Block int
	Lane  int
	Idle  time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("basker: %s sweep stalled: no progress for %v (block %d, lane %d)", e.Sweep, e.Idle, e.Block, e.Lane)
}

// Unwrap lets errors.Is(err, ErrStalled) match the class.
func (e *StallError) Unwrap() error { return ErrStalled }

// CancelCause maps a fired context onto the library's typed errors:
// ErrDeadlineExceeded for an expired deadline, ErrCanceled otherwise.
func CancelCause(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}

// MonitorArmed reports whether a sweep monitor would actually run for this
// context/stall-timeout pair — the gate the drivers use so the unarmed fast
// path (context.Background(), no StallTimeout) allocates nothing.
func MonitorArmed(ctx context.Context, stall time.Duration) bool {
	return (ctx != nil && ctx.Done() != nil) || stall > 0
}

// SweepControl is the shared cancellation fabric of one sweep owner. All
// EpochSignals bound to it poll its cancel flag on their blocked slow path
// and bump its progress counter on every Set.
//
// The control is single-sweep-at-a-time, like the fabrics it serves:
// BeginSweep must not race any worker of a previous sweep (the drivers
// drain stragglers first).
type SweepControl struct {
	flag     atomic.Bool
	progress atomic.Uint64
	// inflight counts live worker goroutines across sweeps, so a sweep
	// that returned early (cancel/stall) can be drained by the next one
	// before any shared state is reset.
	inflight atomic.Int64

	// armed mirrors the BeginSweep argument: only monitored sweeps need
	// the progress heartbeat, so bound fabrics skip the per-block atomic
	// add entirely on unarmed sweeps (a plain read — BeginSweep writes it
	// strictly before workers launch, after stragglers drained).
	armed bool
}

// BeginSweep re-arms the control for a new sweep. armed selects whether a
// monitor will watch this sweep. Callers must have drained every straggler
// first.
func (c *SweepControl) BeginSweep(armed bool) {
	c.flag.Store(false)
	c.armed = armed
}

// Cancel aborts the current sweep: every bound fabric's blocked wait
// returns false.
func (c *SweepControl) Cancel() { c.flag.Store(true) }

// Canceled reports whether the current sweep has been cancelled.
func (c *SweepControl) Canceled() bool { return c.flag.Load() }

// Poll adapts the cancel flag to the gp.Options.Poll hook: long kernels
// call it every few hundred columns and unwind on a non-nil return.
func (c *SweepControl) Poll() error {
	if c.flag.Load() {
		return errSweepAborted
	}
	return nil
}

// addWorker/workerDone bracket every launched sweep goroutine, so drain can
// wait for true quiescence after an early (cancelled/stalled) return.
func (c *SweepControl) addWorker()  { c.inflight.Add(1) }
func (c *SweepControl) workerDone() { c.inflight.Add(-1) }

// drain blocks until every worker goroutine of previous sweeps has exited.
// The hot path is one atomic load; the spin/sleep backoff only runs after a
// sweep returned early, while its straggler finishes in the background.
func (c *SweepControl) drain() {
	if c.inflight.Load() == 0 {
		return
	}
	for spins := 0; c.inflight.Load() != 0; spins++ {
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// Progress reports the cumulative completion-signal count of the bound
// fabrics — the heartbeat the stall watchdog samples.
func (c *SweepControl) Progress() uint64 { return c.progress.Load() }

// Step bumps the progress heartbeat directly, for sweeps that complete
// work outside an EpochSignals fabric (the panel-solve path steps once per
// finished panel).
func (c *SweepControl) Step() { c.progress.Add(1) }

// MonitorSpec configures one sweep's monitor.
type MonitorSpec struct {
	// Ctx is the caller's context; a nil or never-cancellable context arms
	// no context watching.
	Ctx context.Context
	// Stall is the no-progress budget; 0 disables the watchdog.
	Stall time.Duration
	// Sweep names the sweep in StallError diagnostics ("factor",
	// "refactor", "partial refactor", "solve").
	Sweep string
	// Ctl is the sweep's cancellation fabric.
	Ctl *SweepControl
	// Pending, called when the watchdog fires, names the first pending
	// block and its worker lane ((-1, -1) when unknown). It runs on the
	// monitor goroutine concurrently with workers, so it must only read
	// sweep-stable state and atomics.
	Pending func() (block, lane int)
}

// SweepMonitor watches one sweep from a side goroutine and cancels it when
// the caller's context fires or progress stops. Drivers must Stop the
// monitor on every return path and surface the error it reports.
type SweepMonitor struct {
	spec MonitorSpec
	err  error
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// StartSweepMonitor launches a monitor for the sweep described by spec,
// or returns nil when neither the context nor a stall timeout arms one
// (callers should gate with MonitorArmed to keep the unarmed path
// allocation-free). The spec's control must already be BeginSweep-armed.
func StartSweepMonitor(spec MonitorSpec) *SweepMonitor {
	if !MonitorArmed(spec.Ctx, spec.Stall) {
		return nil
	}
	m := &SweepMonitor{spec: spec, quit: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *SweepMonitor) run() {
	defer close(m.done)
	var ctxDone <-chan struct{}
	if m.spec.Ctx != nil {
		ctxDone = m.spec.Ctx.Done()
	}
	var stallC <-chan time.Time
	var timer *time.Timer
	if m.spec.Stall > 0 {
		// Sampling at half the budget bounds detection latency by 1.5× the
		// configured timeout — inside the documented 2× guarantee.
		timer = time.NewTimer(m.spec.Stall / 2)
		defer timer.Stop()
		stallC = timer.C
	}
	last := m.spec.Ctl.Progress()
	lastChange := time.Now()
	for {
		select {
		case <-m.quit:
			return
		case <-ctxDone:
			m.err = CancelCause(m.spec.Ctx)
			m.spec.Ctl.Cancel()
			return
		case <-stallC:
			now := time.Now()
			if cur := m.spec.Ctl.Progress(); cur != last {
				last = cur
				lastChange = now
			} else if idle := now.Sub(lastChange); idle >= m.spec.Stall {
				blk, lane := -1, -1
				if m.spec.Pending != nil {
					blk, lane = m.spec.Pending()
				}
				m.err = &StallError{Sweep: m.spec.Sweep, Block: blk, Lane: lane, Idle: idle}
				m.spec.Ctl.Cancel()
				return
			}
			timer.Reset(m.spec.Stall / 2)
		}
	}
}

// Stop shuts the monitor down, waits for its goroutine to exit, and
// returns the typed cancellation error if the monitor fired (nil
// otherwise). Safe on a nil monitor, so drivers can call it
// unconditionally.
func (m *SweepMonitor) Stop() error {
	if m == nil {
		return nil
	}
	m.once.Do(func() { close(m.quit) })
	<-m.done
	return m.err
}
