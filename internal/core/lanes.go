package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the one lane launcher of the analysis, sweep and solve
// paths. A lane is one worker's share of a parallel phase: an Analyze
// worker, a dealing worker or fine-ND lane of a numeric sweep, a member of
// a fine-ND team, a panel worker of a batch solve. Every go statement of
// those paths is here (cancel.go's SweepMonitor watcher is the one other
// goroutine), and so is the one lane-level recover, guard; the entry
// points keep their own (recoverSerial, trisolve's solve entries). It has
// two forms:
//
//   - Lanes, the joined form: n lanes, each on its own goroutine (one
//     lane on the caller's), and the call returns once all have finished.
//     A panicking lane runs its onPanic hook on its own goroutine, so
//     siblings blocked on it are released, and the first panic is
//     re-raised on the caller after the join, wrapped by PanicError.
//     Users: parallelBlocks (Analyze and its plan), the fine-ND team of
//     ndNum.sweep, trisolve's panel workers.
//   - Numeric.goLane, the detached form, for runSweep only. Each lane is a
//     goroutine inside the SweepControl inflight bracket, and the driver
//     joins on completion slots, so a cancelled or stalled sweep returns
//     before a wedged lane does; the next entry point's drain waits it
//     out. A panicking lane is recorded through notePanic, then its release
//     hook force-sets the completion slots it owns.
//
// At one thread no site calls either: each keeps a direct serial call, so
// no closure escapes to the heap and no goroutine starts.

// PanicError wraps a recovered panic value with ErrInternalPanic and the
// panicking goroutine's stack. An error that already wraps
// ErrInternalPanic — a lane's panic that Lanes re-raised on its caller — is
// returned as it is, so it keeps the lane's stack and is wrapped once.
func PanicError(r any) error {
	e, ok := r.(error)
	switch {
	case ok && errors.Is(e, ErrInternalPanic):
		return e
	case ok:
		// Keep error-typed panic values in the chain so callers can match
		// them with errors.Is through the ErrInternalPanic wrapper.
		return fmt.Errorf("%w: %w\n%s", ErrInternalPanic, e, debug.Stack())
	}
	return fmt.Errorf("%w: %v\n%s", ErrInternalPanic, r, debug.Stack())
}

// guard runs fn(lane) and, if it panics, hands the recovered value to
// caught(lane, r) on the same goroutine instead of letting it unwind
// further: the lane-level recover of both forms.
func guard(lane int, fn func(lane int), caught func(lane int, r any)) {
	defer func() {
		if r := recover(); r != nil {
			caught(lane, r)
		}
	}()
	fn(lane)
}

// Lanes runs fn(lane) for every lane in [0, n), n >= 1, and returns once
// all have finished. A lane that panics runs onPanic(lane), when non-nil,
// on its own goroutine — the hook that releases siblings blocked on it —
// and once every lane has finished the first panic is re-raised on the
// caller, wrapped by PanicError. One lane runs on the caller's goroutine;
// of several, lane t runs on the t-th goroutine started while the caller
// waits. Two cheaper launches measured slower at Threads 2 and 4 on 2
// vCPUs: lane 0 on the caller left the lane started last in its P's
// runnext slot, which other Ps steal from last (a full xyce refresh at
// Threads 2, 10 % slower), and one shared closure whose goroutines drew
// their lanes in the order they ran reordered the fine-ND team's leaves
// (a fresh hcircuit factor at Threads 4, 8 % slower).
func Lanes(n int, fn func(lane int), onPanic func(lane int)) {
	j := &join{fn: fn, onPanic: onPanic}
	if n == 1 {
		guard(0, fn, j.caught)
	} else {
		j.wg.Add(n)
		for t := range n {
			go j.run(t)
		}
		j.wg.Wait()
	}
	if first := j.first.Load(); first != nil {
		panic(*first)
	}
}

// join is the state of one Lanes call.
type join struct {
	wg      sync.WaitGroup
	fn      func(lane int)
	onPanic func(lane int)
	first   atomic.Pointer[error]
}

func (j *join) run(t int) {
	defer j.wg.Done()
	guard(t, j.fn, j.caught)
}

func (j *join) caught(t int, r any) {
	err := PanicError(r)
	if j.onPanic != nil {
		j.onPanic(t)
	}
	j.first.CompareAndSwap(nil, &err)
}

// parallelBlocks runs fn(blk, t) for every block, dealing the independent
// blocks through one atomic cursor to up to nt lanes (inline when nt <= 1);
// t is the lane executing the block, for trace attribution and per-lane
// workspaces. A lane's panic reaches the caller after the join, as the
// inline call's does, wrapped by PanicError.
func parallelBlocks(nblocks, nt int, fn func(blk, t int)) {
	if nt = min(nt, nblocks); nt <= 1 {
		for blk := 0; blk < nblocks; blk++ {
			fn(blk, 0)
		}
		return
	}
	var next atomic.Int64
	Lanes(nt, func(t int) {
		for blk := int(next.Add(1)) - 1; blk < nblocks; blk = int(next.Add(1)) - 1 {
			fn(blk, t)
		}
	}, nil)
}

// goLane starts run(num, lane) on its own goroutine and returns at once:
// the detached form, for runSweep's dealing workers and fine-ND lanes,
// which read the sweep's mode and mask from num. The goroutine counts in
// the sweep's inflight bracket until it exits. A panic is recorded through
// notePanic, then release(num, lane) force-sets the completion slots the
// lane owns, on the lane's goroutine, so the driver's join quiesces.
func (num *Numeric) goLane(lane int, run, release func(num *Numeric, lane int)) {
	num.sweep.addWorker()
	go func() {
		defer num.sweep.workerDone()
		guard(lane, func(lane int) { run(num, lane) }, func(lane int, r any) {
			num.notePanic(r)
			release(num, lane)
		})
	}()
}
