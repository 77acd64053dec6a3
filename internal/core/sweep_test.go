package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestCanceledSweepSkipsStallPoint pins what a worker of a cancelled sweep
// does once its kernel returns: it records its block's outcome and signals,
// and runs neither the scheduler hooks nor the fault points. The one armed
// stall rule must still be unfired after the next entry point has drained
// the cancelled sweep — otherwise a straggler the caller no longer waits for
// takes a rule, or CPU, meant for the next sweep.
func TestCanceledSweepSkipsStallPoint(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(73))
			a := randCircuit(rng, 320, 0.6)
			inject := faultinject.New()
			opts := optsWithThreads(threads)
			opts.Inject = inject
			sym, err := Analyze(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			// The hook cancels the step's context as a block starts and holds
			// that block until the monitor has cancelled the sweep, so every
			// kernel that runs finishes inside a cancelled sweep.
			var num *Numeric
			var cancelOnStart atomic.Pointer[context.CancelFunc]
			hooks := &schedHooks{blockStart: func(int, bool) {
				if c := cancelOnStart.Load(); c != nil {
					(*c)()
					for !num.sweep.Canceled() {
						runtime.Gosched()
					}
				}
			}}
			if num, err = factorFresh(context.Background(), a, sym, hooks); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelOnStart.Store(&cancel)
			inject.Arm(faultinject.PointStall, faultinject.Rule{
				Sweep: faultinject.SweepFactor, SweepSet: true, Block: -1, Worker: -1, Times: 1, Stall: 20 * time.Millisecond,
			})
			if err := num.FactorIntoCtx(ctx, a); !errors.Is(err, ErrCanceled) {
				t.Fatalf("FactorIntoCtx cancelled from the block-start hook: %v, want ErrCanceled", err)
			}
			if err := num.enter(context.Background(), a); err != nil {
				t.Fatal(err)
			}
			if n := inject.Fired(faultinject.PointStall); n != 0 {
				t.Fatalf("the cancelled sweep's workers fired the stall rule %d time(s)", n)
			}
			cancelOnStart.Store(nil)
			inject.DisarmAll()
			if err := num.FactorInto(a); err != nil {
				t.Fatal(err)
			}
			solveCheck(t, a, num, 1e-7)
		})
	}
}

// TestSweepModesInterleaved is the cross-mode model test of the one
// scheduler: every mode runs on one completion fabric, one error slice and
// one ND flag set, so a seeded random walk over {FactorInto, Refactor,
// RefactorPartial} × {clean, context fired mid-sweep, forced
// pivot failure, worker panic} must keep the model's two invariants — after
// every successful step the solve agrees with a fresh Factor of the same
// values, after every failed step the numeric is poisoned and the next
// (fault-free) step, whatever its mode, recovers it.
func TestSweepModesInterleaved(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			const steps = 220
			rng := rand.New(rand.NewSource(int64(60 + threads)))
			base := randCircuit(rng, 320, 0.6)
			inject := faultinject.New()
			opts := optsWithThreads(threads)
			opts.Inject = inject
			sym, err := Analyze(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sym.NumNDBlocks() == 0 || sym.NumBlocks() == sym.NumNDBlocks() {
				t.Fatal("test matrix needs both ND and small blocks")
			}
			// The scheduler hook fires the step's context (when one is set)
			// as the first block starts: live at entry, cancelled mid-sweep.
			// It stays installed for the whole walk, so stragglers of a
			// cancelled sweep never race a hook swap.
			var cancelOnStart atomic.Pointer[context.CancelFunc]
			hooks := &schedHooks{blockStart: func(int, bool) {
				if c := cancelOnStart.Load(); c != nil {
					(*c)()
				}
			}}
			num, err := factorFresh(context.Background(), base, sym, hooks)
			if err != nil {
				t.Fatal(err)
			}
			rhs := make([]float64, base.N)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			agree := func(step int, what string, a *sparse.CSC) {
				t.Helper()
				ref, err := Factor(a, sym)
				if err != nil {
					t.Fatalf("step %d: reference factor: %v", step, err)
				}
				want := append([]float64(nil), rhs...)
				got := append([]float64(nil), rhs...)
				ref.Solve(want)
				num.Solve(got)
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
						t.Fatalf("step %d (%s): x[%d] = %v, fresh factor gives %v", step, what, i, got[i], want[i])
					}
				}
			}

			prev := base // the values the numeric last gathered
			recovering := false
			failed := 0
			modes := [3]int{}
			for step := 1; step <= steps; step++ {
				// Next matrix: a localized perturbation of prev (so the change
				// set is exact) or a full restamp.
				var cols []int
				var next *sparse.CSC
				if rng.Intn(2) == 0 {
					cols = matgen.ChangeSet(base.N, 0.02+0.1*rng.Float64(), rng.Int63(), rng.Intn(2) == 0)
					next = matgen.PerturbColumns(prev, cols, step, 61)
				} else {
					next = matgen.TransientStep(base, step, 62)
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				fault := "clean"
				if !recovering {
					switch rng.Intn(8) {
					case 0:
						// The context fires mid-sweep; one wedged worker holds
						// the sweep open until the monitor has seen it.
						fault = "cancel"
						inject.Arm(faultinject.PointStall, faultinject.Rule{Block: -1, Worker: -1, Times: 1, Stall: 15 * time.Millisecond})
						ctx, cancel = context.WithCancel(ctx)
						cancelOnStart.Store(&cancel)
					case 1:
						fault = "pivot-once" // absorbed by the per-block fallback
						inject.Arm(faultinject.PointPivotFail, faultinject.AnyTimes(1))
					case 2:
						fault = "pivot-always"
						inject.Arm(faultinject.PointPivotFail, faultinject.Any())
					case 3:
						fault = "panic"
						inject.Arm(faultinject.PointWorkerPanic, faultinject.AnyTimes(1))
					}
				}
				mode := rng.Intn(3)
				if cols == nil && mode == 2 {
					mode = 1 // no exact change set for a full restamp: discover it
				}
				modes[mode]++
				var what string
				switch mode {
				case 0:
					what, err = "FactorInto", num.FactorIntoCtx(ctx, next)
				case 1:
					what, err = "Refactor", num.RefactorCtx(ctx, next)
				case 2:
					what, err = "RefactorPartial", num.RefactorPartialCtx(ctx, next, cols)
				}
				cancelOnStart.Store(nil)
				cancel()
				inject.DisarmAll()
				what += "/" + fault
				prev = next
				if err != nil {
					if fault == "clean" {
						t.Fatalf("step %d (%s): %v", step, what, err)
					}
					if !num.Poisoned() {
						t.Fatalf("step %d (%s) failed with %v but did not poison the numeric", step, what, err)
					}
					failed++
					recovering = true
					continue
				}
				if num.Poisoned() {
					t.Fatalf("step %d (%s) succeeded but left the numeric poisoned", step, what)
				}
				recovering = false
				agree(step, what, next)
			}
			if failed == 0 || num.PivotFallbacks() == 0 {
				t.Fatalf("walk exercised %d failed steps and %d pivot fallbacks; want both > 0", failed, num.PivotFallbacks())
			}
			for m, n := range modes {
				if n == 0 {
					t.Fatalf("walk never drew mode %d", m)
				}
			}
		})
	}
}
