// Package faultinject is the deterministic fault-injection harness of the
// numeric engine's chaos test suite. An *Injector is threaded through
// core.Options into every parallel sweep; each sweep consults the injector
// at a small set of fixed points (pivot selection, kernel input values,
// worker entry, signal publication) and, when an armed rule matches, the
// point fires: a forced pivot failure, an injected NaN, a worker panic, or
// a stalled signal publication.
//
// The package follows the same zero-cost-when-disabled discipline as
// internal/trace: a nil *Injector is the disabled state, every hook method
// has a nil receiver check as its first instruction, and the hot paths pay
// one pointer test and nothing else (no allocation, no atomic, no clock).
// Rules are immutable once armed and matching uses atomics only, so armed
// injectors are safe for use from every worker goroutine under -race.
package faultinject

import (
	"errors"
	"sync/atomic"
	"time"
)

// Sweep identifies which parallel sweep is consulting the injector, so a
// rule can target one sweep's workers without disturbing the others.
type Sweep uint8

const (
	// SweepFactor is the unified fresh-factorization scheduler (the
	// fine-BTF dealing workers and the per-ND-block launch goroutines).
	SweepFactor Sweep = iota
	// SweepND is a fine-ND block's cooperative worker team (both the fresh
	// factorization and in-place refactorization schedules).
	SweepND
	// SweepRefactor is the unified full-refactorization scheduler.
	SweepRefactor
	// SweepPartial is the partial refresh sweep (a Refactor that found
	// fewer than half the columns changed, or RefactorPartial).
	SweepPartial
	// SweepSolve is the panel-parallel multi-RHS solve (SolveMany and
	// SolveMatrix with several panels and workers): WorkerPanic fires as a
	// worker starts, StallPoint after each panel it finishes, with the
	// panel index as the block.
	SweepSolve
	numSweeps
)

// Point identifies an injection point class.
type Point uint8

const (
	// PointPivotFail forces the consulted kernel call to report a pivot
	// failure (gp.ErrSingular at the call site), exercising the per-block
	// re-pivoting fallbacks and, when those are also forced to fail, the
	// poisoned-numeric error path.
	PointPivotFail Point = iota
	// PointKernelNaN poisons one input value of the consulted block with
	// NaN before its kernel runs: silent numeric corruption, detectable
	// only by the health layer.
	PointKernelNaN
	// PointWorkerPanic panics the consulting worker goroutine with
	// ErrInjectedPanic, exercising the panic-isolation layer.
	PointWorkerPanic
	// PointStall sleeps the consulting worker just before it publishes a
	// completion signal, exercising the point-to-point wait paths (and the
	// CI deadlock watchdog) without changing any result.
	PointStall
	numPoints
)

// ErrInjectedPanic is the value injected worker panics carry.
var ErrInjectedPanic = errors.New("faultinject: injected worker panic")

// Rule arms one injection point. The zero value matches every consultation
// of the point and fires without limit.
type Rule struct {
	// Sweep restricts the rule to one sweep's consultations when AnyBlock
	// and worker targeting are not enough. It is only consulted when
	// SweepSet is true (the zero Sweep value is a real sweep).
	Sweep    Sweep
	SweepSet bool
	// Block restricts the rule to one coarse block id; negative matches
	// every block. Points consulted without a block identity (worker entry)
	// ignore it.
	Block int
	// Worker restricts the rule to one worker index; negative matches every
	// worker. Points consulted without a worker identity ignore it.
	Worker int
	// Times caps how often the rule fires; 0 is unlimited. Deterministic:
	// the cap is enforced with one atomic counter, so exactly Times
	// consultations fire (in program order per consulting goroutine).
	Times int64
	// Stall is the sleep duration of PointStall rules.
	Stall time.Duration
}

type armedRule struct {
	Rule
	fired atomic.Int64
}

// Injector holds at most one armed rule per injection point. The zero
// value is valid and fully disarmed; a nil *Injector is the zero-cost
// disabled state every production path runs with.
type Injector struct {
	rules  [numPoints]atomic.Pointer[armedRule]
	counts [numPoints]atomic.Int64
}

// New returns a disarmed injector.
func New() *Injector { return &Injector{} }

// Arm installs r at point p, replacing any previous rule (its fire count
// starts at zero). Arming while a sweep is consulting the point is safe.
// Block/Worker use negative as the wildcard (0 is a real id); use Any()
// or AnyTimes() for match-everything rules.
func (in *Injector) Arm(p Point, r Rule) {
	in.rules[p].Store(&armedRule{Rule: r})
}

// Any is the wildcard Rule: every consultation of the point matches.
func Any() Rule { return Rule{Block: -1, Worker: -1} }

// AnyTimes is the wildcard Rule firing at most n times.
func AnyTimes(n int64) Rule { return Rule{Block: -1, Worker: -1, Times: n} }

// Disarm removes the rule at point p.
func (in *Injector) Disarm(p Point) {
	if in == nil {
		return
	}
	in.rules[p].Store(nil)
}

// DisarmAll removes every rule.
func (in *Injector) DisarmAll() {
	if in == nil {
		return
	}
	for p := Point(0); p < numPoints; p++ {
		in.rules[p].Store(nil)
	}
}

// Fired reports how many times point p has fired since the injector was
// created (across all rules armed at it).
func (in *Injector) Fired(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.counts[p].Load()
}

// fire consults point p. It returns the matched rule when the point fires.
func (in *Injector) fire(p Point, s Sweep, block, worker int) *armedRule {
	ar := in.rules[p].Load()
	if ar == nil {
		return nil
	}
	if ar.SweepSet && ar.Sweep != s {
		return nil
	}
	if ar.Block >= 0 && block >= 0 && ar.Block != block {
		return nil
	}
	if ar.Worker >= 0 && worker >= 0 && ar.Worker != worker {
		return nil
	}
	if ar.Times > 0 && ar.fired.Add(1) > ar.Times {
		return nil
	}
	in.counts[p].Add(1)
	return ar
}

// PivotFail reports whether the consulted kernel call must fail as if no
// acceptable pivot existed. Nil-safe; zero cost when disabled.
func (in *Injector) PivotFail(s Sweep, block int) bool {
	if in == nil {
		return false
	}
	return in.fire(PointPivotFail, s, block, -1) != nil
}

// KernelNaN reports whether the consulted block's input must be poisoned
// with NaN before its kernel runs. Nil-safe; zero cost when disabled.
func (in *Injector) KernelNaN(s Sweep, block int) bool {
	if in == nil {
		return false
	}
	return in.fire(PointKernelNaN, s, block, -1) != nil
}

// WorkerPanic panics with ErrInjectedPanic when an armed rule matches the
// consulting worker. Nil-safe; zero cost when disabled.
func (in *Injector) WorkerPanic(s Sweep, worker int) {
	if in == nil {
		return
	}
	if in.fire(PointWorkerPanic, s, -1, worker) != nil {
		panic(ErrInjectedPanic)
	}
}

// StallPoint sleeps the consulting worker for the armed rule's Stall
// duration just before it publishes a completion signal. Nil-safe; zero
// cost when disabled.
func (in *Injector) StallPoint(s Sweep, block int) {
	if in == nil {
		return
	}
	if ar := in.fire(PointStall, s, block, -1); ar != nil && ar.Stall > 0 {
		time.Sleep(ar.Stall)
	}
}
