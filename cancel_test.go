package basker

import (
	"context"
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matgen"
)

// stallRule arms a one-shot PointStall on the given sweep that sleeps the
// consulting worker long enough for the watchdog (or a context deadline) to
// fire well before the worker wakes up.
func stallRule(inject *faultinject.Injector, sweep faultinject.Sweep, d time.Duration) {
	inject.Arm(faultinject.PointStall, faultinject.Rule{
		Sweep: sweep, SweepSet: true, Block: -1, Worker: -1, Times: 1, Stall: d,
	})
}

// wantStalled asserts the watchdog's full verdict: the class error, the
// concrete *StallError with the expected sweep name and a named block, and
// an elapsed time proving the sweep returned while the straggler was still
// asleep (stall >> elapsed bound).
func wantStalled(t *testing.T, err error, sweep string, elapsed, bound time.Duration) {
	t.Helper()
	if err == nil {
		t.Fatal("stalled sweep returned nil error")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stalled sweep error %v does not match ErrStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("stalled sweep error %v carries no *StallError", err)
	}
	if se.Sweep != sweep {
		t.Fatalf("StallError.Sweep = %q, want %q", se.Sweep, sweep)
	}
	if se.Block < 0 {
		t.Fatalf("StallError names no block: %+v", se)
	}
	if se.Idle <= 0 {
		t.Fatalf("StallError.Idle = %v, want > 0", se.Idle)
	}
	if elapsed >= bound {
		t.Fatalf("stalled sweep took %v to return, want < %v (early return while the straggler sleeps)", elapsed, bound)
	}
}

// TestWatchdogStallFactor wedges a factor-sweep worker inside a kernel for
// far longer than StallTimeout: the watchdog must abort the sweep with
// ErrStalled naming the stuck block while the straggler is still asleep,
// and a fresh Factor after disarming must fully recover.
func TestWatchdogStallFactor(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, StallTimeout: 60 * time.Millisecond, inject: inject})

	stallRule(inject, faultinject.SweepFactor, 900*time.Millisecond)
	t0 := time.Now()
	_, err := s.Factor(a)
	wantStalled(t, err, "factor", time.Since(t0), 700*time.Millisecond)

	inject.DisarmAll()
	f, err := s.Factor(a)
	if err != nil {
		t.Fatalf("factor after stall: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestWatchdogStallND wedges a worker of the fine-ND cooperative team; the
// coarse factor watchdog must still see the heartbeat stop (inner kernel
// completions feed the same progress counter) and abort the sweep.
func TestWatchdogStallND(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, StallTimeout: 60 * time.Millisecond, inject: inject})

	stallRule(inject, faultinject.SweepND, 900*time.Millisecond)
	t0 := time.Now()
	_, err := s.Factor(a)
	if err == nil {
		t.Skip("matrix produced no ND sweep at this configuration")
	}
	wantStalled(t, err, "factor", time.Since(t0), 700*time.Millisecond)

	inject.DisarmAll()
	f, err := s.Factor(a)
	if err != nil {
		t.Fatalf("factor after ND stall: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestWatchdogStallRefactor wedges a refactor-sweep worker on a full
// restamp: ErrStalled, the numeric poisoned but recoverable, the next
// Refactor restores it (after draining the straggler at its entry).
func TestWatchdogStallRefactor(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, StallTimeout: 60 * time.Millisecond, inject: inject})
	f, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}

	a = matgen.TransientStep(a, 1, 11)
	stallRule(inject, faultinject.SweepRefactor, 900*time.Millisecond)
	t0 := time.Now()
	err = f.Refactor(a)
	wantStalled(t, err, "refactor", time.Since(t0), 700*time.Millisecond)
	if !f.Health().Poisoned {
		t.Fatal("stalled refactor did not poison the numeric")
	}
	if cerr := f.Check(); cerr == nil {
		t.Fatal("Check on stalled numeric reported nil")
	}

	inject.DisarmAll()
	if err := f.Refactor(a); err != nil {
		t.Fatalf("Refactor after stall: %v", err)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("health check after recovery: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestWatchdogStallPartial wedges a worker of the incremental refresh.
func TestWatchdogStallPartial(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, StallTimeout: 60 * time.Millisecond, inject: inject})
	f, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}

	cols := matgen.ChangeSet(a.N, 0.05, 3, true)
	next := matgen.PerturbColumns(a, cols, 1, 17)

	stallRule(inject, faultinject.SweepPartial, 900*time.Millisecond)
	t0 := time.Now()
	err = f.RefactorPartial(next, cols)
	if err == nil {
		t.Skip("change set stayed on the serial partial path")
	}
	wantStalled(t, err, "partial refactor", time.Since(t0), 700*time.Millisecond)
	if !f.Health().Poisoned {
		t.Fatal("stalled partial refresh did not poison the numeric")
	}

	inject.DisarmAll()
	if err := f.Refactor(next); err != nil {
		t.Fatalf("Refactor after stalled partial: %v", err)
	}
	chaosCheckSolve(t, f, next)
}

// TestWatchdogStallNDRefactor wedges a worker of the fine-ND cooperative
// team during a refresh, full and partial: the ND walk consults the
// SweepND stall point in every mode, so the watchdog must abort the sweep
// with ErrStalled naming the ND block (a team, so no lane), the numeric is
// poisoned, and the next Refactor recovers after the straggler drains.
func TestWatchdogStallNDRefactor(t *testing.T) {
	a := chaosMatrix()
	// Every third column: under the half-the-matrix cutoff that degrades a
	// change set to a full refresh, and dense enough to reach the ND block.
	var cols []int
	for j := 0; j < a.N; j += 3 {
		cols = append(cols, j)
	}
	local := matgen.PerturbColumns(a, cols, 1, 17)
	restamp := matgen.TransientStep(a, 1, 17)
	for _, tc := range []struct {
		name, sweep string
		next        *Matrix
		refresh     func(f *Factorization) error
	}{
		{"full", "refactor", restamp, func(f *Factorization) error { return f.Refactor(restamp) }},
		{"partial", "partial refactor", local, func(f *Factorization) error { return f.RefactorPartial(local, cols) }},
		{"discovered", "partial refactor", local, func(f *Factorization) error { return f.Refactor(local) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inject := faultinject.New()
			s := New(Options{Threads: 4, BigBlockMin: 64, StallTimeout: 60 * time.Millisecond, inject: inject})
			f, err := s.Factor(a)
			if err != nil {
				t.Fatal(err)
			}
			if f.Stats(a).NDBlocks == 0 {
				t.Fatal("test matrix needs an ND block")
			}

			stallRule(inject, faultinject.SweepND, 900*time.Millisecond)
			t0 := time.Now()
			err = tc.refresh(f)
			wantStalled(t, err, tc.sweep, time.Since(t0), 700*time.Millisecond)
			var se *StallError
			if !errors.As(err, &se) || se.Lane != -1 {
				t.Fatalf("StallError names lane %d, want -1 (the stalled block is an ND team's): %+v", se.Lane, se)
			}
			if !f.Health().Poisoned {
				t.Fatal("stalled ND refresh did not poison the numeric")
			}

			inject.DisarmAll()
			if err := f.Refactor(tc.next); err != nil {
				t.Fatalf("Refactor after ND stall: %v", err)
			}
			if err := f.Check(); err != nil {
				t.Fatalf("health check after recovery: %v", err)
			}
			chaosCheckSolve(t, f, tc.next)
		})
	}
}

// TestCtxPreCanceledEntryPoints drives a context that is already cancelled
// into every ctx-accepting entry point: each must reject at entry with
// ErrCanceled (which also matches context.Canceled) before any numeric
// work, leaving the factorization untouched.
func TestCtxPreCanceledEntryPoints(t *testing.T) {
	_, f, a := chaosFactor(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(Options{Threads: 4, BigBlockMin: 64})

	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s with pre-cancelled ctx: %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s error %v does not match context.Canceled", name, err)
		}
	}

	_, err := s.FactorCtx(ctx, a)
	check("FactorCtx", err)
	check("RefactorCtx", f.RefactorCtx(ctx, a))
	check("RefactorPartialCtx", f.RefactorPartialCtx(ctx, a, []int{0}))

	b := make([]float64, a.N)
	check("SolveCtx", f.SolveCtx(ctx, b))
	check("SolveManyCtx", f.SolveManyCtx(ctx, [][]float64{b}))
	res, err := f.SolveRefinedCtx(ctx, a, b, 5)
	check("SolveRefinedCtx", err)
	if !res.Canceled {
		t.Fatal("SolveRefinedCtx with pre-cancelled ctx did not set RefineResult.Canceled")
	}

	// Rejection is entry-only: the factorization still works.
	if f.Health().Poisoned {
		t.Fatal("entry rejection poisoned the numeric")
	}
	chaosCheckSolve(t, f, a)
}

// TestCtxDeadlineMidFactor wedges a factor worker with no watchdog armed,
// but under a context deadline: the monitor must map the fired deadline to
// ErrDeadlineExceeded (matching context.DeadlineExceeded) and return while
// the straggler is still asleep.
func TestCtxDeadlineMidFactor(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, inject: inject})

	stallRule(inject, faultinject.SweepFactor, 900*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := s.FactorCtx(ctx, a)
	if elapsed := time.Since(t0); elapsed >= 700*time.Millisecond {
		t.Fatalf("deadline abort took %v, want early return", elapsed)
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("FactorCtx past deadline: %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not match context.DeadlineExceeded", err)
	}

	inject.DisarmAll()
	f, err := s.Factor(a)
	if err != nil {
		t.Fatalf("factor after deadline abort: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestCtxCancelMidRefactor cancels a context mid-refactor (the sweep held
// open by a wedged worker): ErrCanceled, poisoned, Refactor recovers.
func TestCtxCancelMidRefactor(t *testing.T) {
	inject := faultinject.New()
	_, f, a := chaosFactor(t, inject)
	a = matgen.TransientStep(a, 1, 11)

	stallRule(inject, faultinject.SweepRefactor, 900*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	err := f.RefactorCtx(ctx, a)
	if elapsed := time.Since(t0); elapsed >= 700*time.Millisecond {
		t.Fatalf("cancel abort took %v, want early return", elapsed)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled RefactorCtx: %v, want ErrCanceled", err)
	}
	if !f.Health().Poisoned {
		t.Fatal("cancelled refactor did not poison the numeric")
	}

	inject.DisarmAll()
	if err := f.Refactor(a); err != nil {
		t.Fatalf("Refactor after cancel: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestSolveRefinedCtxBestIterate cancels refinement between iterations:
// the call reports Canceled with the typed error, and b holds the direct
// solve's iterate (finite, usable) rather than garbage.
func TestSolveRefinedCtxBestIterate(t *testing.T) {
	_, f, a := chaosFactor(t, nil)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1 + float64(i%5)
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)

	// The context fires after the entry check; the direct solve and first
	// residual still run, then the inter-iteration check trips.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := f.SolveRefinedCtx(ctx, a, b, 10)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled SolveRefinedCtx: %v, want ErrCanceled", err)
	}
	if !res.Canceled {
		t.Fatal("RefineResult.Canceled not set on cancelled refinement")
	}

	// A fresh uncancelled call still converges on the same inputs.
	b2 := make([]float64, a.N)
	a.MulVec(b2, x)
	if _, err := f.SolveRefined(a, b2, 10); err != nil {
		t.Fatalf("SolveRefined after cancelled attempt: %v", err)
	}
}

// TestPoolAcquireCtxRejected pins pool admission accounting: an AcquireCtx
// whose context expired before entry is turned away with no numeric work
// and counted in PoolStats.Rejected.
func TestPoolAcquireCtxRejected(t *testing.T) {
	pool := NewPool(PoolOptions{Options: Options{Threads: 2, BigBlockMin: 64}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.AcquireCtx(ctx, chaosMatrix()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("AcquireCtx with expired ctx: %v, want ErrCanceled", err)
	}
	st := pool.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Stats.Rejected = %d, want 1", st.Rejected)
	}
	if st.Misses != 0 {
		t.Fatalf("rejected acquire still ran the miss path (Misses = %d)", st.Misses)
	}
}

// TestPoolAdmissionQueue fills the admission semaphore and sends a caller
// with a deadline into the queue: the wait is counted (QueueWaits), the
// fired deadline is counted (Canceled) and reported as ErrDeadlineExceeded,
// and once the slot frees the same acquire succeeds.
func TestPoolAdmissionQueue(t *testing.T) {
	pool := NewPool(PoolOptions{
		Options:              Options{Threads: 2, BigBlockMin: 64},
		MaxConcurrentFactors: 1,
	})
	a := chaosMatrix()

	pool.sem <- struct{}{} // occupy the only slot, as a running factorization would
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, err := pool.AcquireCtx(ctx, a); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued AcquireCtx past deadline: %v, want ErrDeadlineExceeded", err)
	}
	st := pool.Stats()
	if st.QueueWaits != 1 {
		t.Fatalf("Stats.QueueWaits = %d, want 1", st.QueueWaits)
	}
	if st.Canceled != 1 {
		t.Fatalf("Stats.Canceled = %d, want 1", st.Canceled)
	}

	<-pool.sem // slot frees
	lease, err := pool.AcquireCtx(context.Background(), a)
	if err != nil {
		t.Fatalf("AcquireCtx after slot freed: %v", err)
	}
	defer lease.Release()
	chaosCheckSolve(t, lease.Factorization, a)
}

// TestPoolFactorCtxAdmissionQueue is TestPoolAdmissionQueue for the fresh
// entry point, on both of its paths: the miss path (no cached entry) and a
// recycled idle entry. Each queued FactorCtx gives up at its deadline with
// ErrDeadlineExceeded and counts a queue wait and a cancellation; once the
// slot frees, the same call succeeds.
func TestPoolFactorCtxAdmissionQueue(t *testing.T) {
	pool := NewPool(PoolOptions{
		Options:              Options{Threads: 2, BigBlockMin: 64},
		MaxConcurrentFactors: 1,
	})
	a := chaosMatrix()
	for round, path := range []string{"miss", "recycled entry"} {
		pool.sem <- struct{}{} // occupy the only slot, as a running factorization would
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
		_, err := pool.FactorCtx(ctx, a)
		cancel()
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("%s: queued FactorCtx past deadline: %v, want ErrDeadlineExceeded", path, err)
		}
		if st := pool.Stats(); st.QueueWaits != uint64(round+1) || st.Canceled != uint64(round+1) {
			t.Fatalf("%s: Stats.QueueWaits = %d, Stats.Canceled = %d, want %d each", path, st.QueueWaits, st.Canceled, round+1)
		}
		<-pool.sem // slot frees
		lease, err := pool.FactorCtx(context.Background(), a)
		if err != nil {
			t.Fatalf("%s: FactorCtx after slot freed: %v", path, err)
		}
		chaosCheckSolve(t, lease.Factorization, a)
		lease.Release() // the next round recycles it
	}
}

// TestPoolFactorCtxCancelMidFactor cancels the context while FactorCtx
// refactors a recycled idle entry: the pool reports the typed error, drops
// the entry, and the next call rebuilds cleanly.
func TestPoolFactorCtxCancelMidFactor(t *testing.T) {
	inject := faultinject.New()
	pool := NewPool(PoolOptions{Options: Options{Threads: 4, BigBlockMin: 64, inject: inject}})
	a := chaosMatrix()
	lease, err := pool.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release() // the idle entry the next FactorCtx recycles

	stallRule(inject, faultinject.SweepFactor, 900*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := pool.FactorCtx(ctx, a); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("FactorCtx cancelled mid-factor: %v, want ErrDeadlineExceeded", err)
	}

	inject.DisarmAll()
	misses := pool.Stats().Misses
	lease, err = pool.FactorCtx(context.Background(), a)
	if err != nil {
		t.Fatalf("FactorCtx after cancelled factor: %v", err)
	}
	defer lease.Release()
	if got := pool.Stats().Misses; got != misses+1 {
		t.Fatalf("Stats.Misses %d → %d: the aborted entry was not dropped", misses, got)
	}
	chaosCheckSolve(t, lease.Factorization, a)
}

// TestPoolAcquireCtxCancelMidFactor cancels the context while the miss-path
// factorization is running: the pool reports the typed error and the next
// acquire rebuilds cleanly.
func TestPoolAcquireCtxCancelMidFactor(t *testing.T) {
	inject := faultinject.New()
	pool := NewPool(PoolOptions{Options: Options{Threads: 4, BigBlockMin: 64, inject: inject}})
	a := chaosMatrix()

	stallRule(inject, faultinject.SweepFactor, 900*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := pool.AcquireCtx(ctx, a); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("AcquireCtx cancelled mid-factor: %v, want ErrDeadlineExceeded", err)
	}

	inject.DisarmAll()
	lease, err := pool.AcquireCtx(context.Background(), a)
	if err != nil {
		t.Fatalf("AcquireCtx after cancelled factor: %v", err)
	}
	defer lease.Release()
	chaosCheckSolve(t, lease.Factorization, a)
}

// TestRefactorCtxBackgroundZeroAlloc pins the fast-path contract of the
// tentpole: a context.Background() RefactorCtx in steady state arms no
// monitor, allocates nothing, and matches the non-ctx path exactly.
func TestRefactorCtxBackgroundZeroAlloc(t *testing.T) {
	a := chaosMatrix()
	s := New(Options{Threads: 1, BigBlockMin: 64})
	f, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*Matrix, 4)
	for i := range steps {
		steps[i] = matgen.TransientStep(a, i+1, 99)
	}
	ctx := context.Background()
	for _, m := range steps { // warm every reusable buffer
		if err := f.RefactorCtx(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := f.RefactorCtx(ctx, steps[i%len(steps)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RefactorCtx(Background) allocates: %v allocs/op", allocs)
	}
	chaosCheckSolve(t, f, steps[i%len(steps)])
}

// TestSolveBackgroundZeroAlloc pins the single-RHS solve's steady state at
// zero allocations for Solve and SolveCtx(context.Background()) at every
// thread count, including BTF-only inputs with many large blocks: a
// factorization with several threads solves one vector with the same
// serial sweep as a one-thread one.
func TestSolveBackgroundZeroAlloc(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops items under -race; allocation counts are unrepresentative")
	}
	for _, tc := range []struct {
		name    string
		a       *Matrix
		threads int
	}{
		{"circuit/T1", chaosMatrix(), 1},
		{"powergrid-20000/T2", matgen.PowerGrid(20000, 8, 3), 2},
		{"powergrid-4000/T4", matgen.PowerGrid(4000, 12, 1), 4},
	} {
		f, err := New(Options{Threads: tc.threads}).Factor(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := make([]float64, tc.a.N)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		ctx := context.Background()
		if err := f.SolveCtx(ctx, b); err != nil { // warm the workspace pool
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(50, func() { f.Solve(b) }); allocs != 0 {
			t.Errorf("%s: steady-state Solve allocates %v allocs/op, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { f.SolveCtx(ctx, b) }); allocs != 0 {
			t.Errorf("%s: steady-state SolveCtx(Background) allocates %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
