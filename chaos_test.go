package basker

import (
	"errors"
	"math"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/matgen"
)

// chaosMatrix is the shared chaos-suite workload: enough coarse blocks for
// the parallel schedulers, a big block for the fine-ND engine.
func chaosMatrix() *Matrix {
	return matgen.Circuit(matgen.CircuitParams{
		N: 700, BTFPct: 50, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 11,
	})
}

// chaosFactor builds a factorization whose sweeps consult inject.
func chaosFactor(t *testing.T, inject *faultinject.Injector) (*Solver, *Factorization, *Matrix) {
	t.Helper()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, inject: inject})
	f, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	return s, f, a
}

func chaosCheckSolve(t *testing.T, f *Factorization, a *Matrix) {
	t.Helper()
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1 + float64(i%5)
	}
	b := make([]float64, a.N)
	a.MulVec(b, x)
	if err := f.Solve(b); err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

// TestChaosFactorWorkerPanic panics a worker of the parallel factorization
// scheduler: Factor must not deadlock the point-to-point fabric, must report
// ErrInternalPanic, and a fresh Factor once disarmed must fully recover.
func TestChaosFactorWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, inject: inject})

	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepFactor, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	if _, err := s.Factor(a); err == nil {
		t.Fatal("factor with injected panic returned nil error")
	} else {
		if !errors.Is(err, ErrInternalPanic) {
			t.Fatalf("factor error %v does not wrap ErrInternalPanic", err)
		}
		if !errors.Is(err, faultinject.ErrInjectedPanic) {
			t.Fatalf("factor error %v lost the panic value", err)
		}
	}

	inject.DisarmAll()
	f, err := s.Factor(a)
	if err != nil {
		t.Fatalf("factor after recovered panic: %v", err)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("health check after recovery: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestChaosNDWorkerPanic panics a worker inside the fine-ND cooperative
// team (the sweep with the deepest point-to-point structure).
func TestChaosNDWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, inject: inject})

	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepND, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	_, err := s.Factor(a)
	if err == nil {
		t.Skip("matrix produced no ND sweep at this configuration")
	}
	if !errors.Is(err, ErrInternalPanic) {
		t.Fatalf("ND factor error %v does not wrap ErrInternalPanic", err)
	}

	inject.DisarmAll()
	f, err := s.Factor(a)
	if err != nil {
		t.Fatalf("factor after recovered ND panic: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestChaosNDWorkerPanicCounted panics a member of a fine-ND block's team
// in Refactor and in FactorInto: the panic must reach the caller as
// ErrInternalPanic and count once in Health and Stats, like any other
// worker panic of the sweep, and the next clean Refactor must restore the
// factorization.
func TestChaosNDWorkerPanicCounted(t *testing.T) {
	for _, op := range []string{"Refactor", "FactorInto"} {
		t.Run(op, func(t *testing.T) {
			inject := faultinject.New()
			_, f, a := chaosFactor(t, inject)
			a = matgen.TransientStep(a, 1, 11)
			inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
				Sweep: faultinject.SweepND, SweepSet: true, Block: -1, Worker: -1, Times: 1,
			})
			var err error
			if op == "Refactor" {
				err = f.Refactor(a)
			} else {
				err = wrapErr(f.num.FactorInto(a))
			}
			if !errors.Is(err, ErrInternalPanic) {
				t.Fatalf("%s error %v does not wrap ErrInternalPanic", op, err)
			}
			if got := f.Health().InternalPanics; got != 1 {
				t.Fatalf("Health().InternalPanics = %d, want 1", got)
			}
			if got := f.Stats(a).InternalPanics; got != 1 {
				t.Fatalf("Stats.InternalPanics = %d, want 1", got)
			}
			inject.DisarmAll()
			if err := f.Refactor(a); err != nil {
				t.Fatalf("Refactor after the ND panic: %v", err)
			}
			if err := f.Check(); err != nil {
				t.Fatalf("health check after recovery: %v", err)
			}
			chaosCheckSolve(t, f, a)
		})
	}
}

// TestChaosRefactorWorkerPanic panics a refactorization worker: the sweep
// reports ErrInternalPanic, the numeric is poisoned (Stats and Health agree),
// and the next Refactor, which then sweeps every block, restores it.
func TestChaosRefactorWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	_, f, a := chaosFactor(t, inject)
	a = matgen.TransientStep(a, 1, 11)

	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepRefactor, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	err := f.Refactor(a)
	if err == nil {
		t.Fatal("refactor with injected panic returned nil error")
	}
	if !errors.Is(err, ErrInternalPanic) {
		t.Fatalf("refactor error %v does not wrap ErrInternalPanic", err)
	}
	st := f.Stats(a)
	if !st.Poisoned {
		t.Fatal("failed refactor did not poison the numeric")
	}
	if st.InternalPanics == 0 {
		t.Fatal("Stats.InternalPanics did not count the recovered panic")
	}
	if h := f.Health(); !h.Poisoned {
		t.Fatal("Health does not report the poisoned numeric")
	}
	if err := f.Check(); !errors.Is(err, ErrInternalPanic) {
		t.Fatalf("Check on poisoned numeric reported %v, want ErrInternalPanic", err)
	}

	inject.DisarmAll()
	if err := f.Refactor(a); err != nil {
		t.Fatalf("Refactor after poisoning: %v", err)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("health check after Refactor: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestChaosPartialWorkerPanic panics a worker of the incremental refresh.
func TestChaosPartialWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	_, f, a := chaosFactor(t, inject)

	cols := matgen.ChangeSet(a.N, 0.05, 3, true)
	next := matgen.PerturbColumns(a, cols, 1, 17)

	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepPartial, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	err := f.RefactorPartial(next, cols)
	if err == nil {
		t.Skip("change set stayed on the serial partial path")
	}
	if !errors.Is(err, ErrInternalPanic) {
		t.Fatalf("partial refactor error %v does not wrap ErrInternalPanic", err)
	}
	if !f.Stats(next).Poisoned {
		t.Fatal("failed partial refresh did not poison the numeric")
	}

	inject.DisarmAll()
	if err := f.Refactor(next); err != nil {
		t.Fatalf("Refactor after poisoned partial: %v", err)
	}
	chaosCheckSolve(t, f, next)
}

// TestChaosPivotFailFallback forces exactly one pivot failure during a
// refactorization: the per-block fresh-pivot fallback must absorb it and
// the refresh must succeed, counted in Stats.PivotFallbacks.
func TestChaosPivotFailFallback(t *testing.T) {
	inject := faultinject.New()
	_, f, a := chaosFactor(t, inject)
	a = matgen.TransientStep(a, 1, 11)

	inject.Arm(faultinject.PointPivotFail, faultinject.Rule{
		Sweep: faultinject.SweepRefactor, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	if err := f.Refactor(a); err != nil {
		t.Fatalf("refactor with single pivot failure did not recover: %v", err)
	}
	if fired := inject.Fired(faultinject.PointPivotFail); fired != 1 {
		t.Fatalf("pivot-fail rule fired %d times, want 1", fired)
	}
	if st := f.Stats(a); st.PivotFallbacks == 0 {
		t.Fatal("recovered pivot failure not counted in Stats.PivotFallbacks")
	}
	chaosCheckSolve(t, f, a)
}

// TestChaosPivotFailPoison forces every pivot attempt (primary and
// fallback) to fail: the refresh must surface a typed error, poison the
// numeric, and stay recoverable by the next Refactor.
func TestChaosPivotFailPoison(t *testing.T) {
	inject := faultinject.New()
	_, f, a := chaosFactor(t, inject)
	a = matgen.TransientStep(a, 1, 11)

	inject.Arm(faultinject.PointPivotFail, faultinject.Rule{
		Sweep: faultinject.SweepRefactor, SweepSet: true, Block: -1, Worker: -1,
	})
	err := f.Refactor(a)
	if err == nil {
		t.Fatal("refactor with unbounded pivot failures returned nil error")
	}
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("forced pivot failure reported %v, want ErrSingular", err)
	}
	if !f.Stats(a).Poisoned {
		t.Fatal("failed refresh did not poison the numeric")
	}

	inject.DisarmAll()
	if err := f.Refactor(a); err != nil {
		t.Fatalf("Refactor after forced singularity: %v", err)
	}
	chaosCheckSolve(t, f, a)
}

// TestChaosKernelNaN injects silent NaN corruption into one block's kernel
// input: the factorization may or may not fail outright, but the health
// layer must detect whatever survives, and a disarmed refresh must recover.
func TestChaosKernelNaN(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	s := New(Options{Threads: 4, BigBlockMin: 64, inject: inject})

	inject.Arm(faultinject.PointKernelNaN, faultinject.Rule{
		Sweep: faultinject.SweepFactor, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	f, err := s.Factor(a)
	if fired := inject.Fired(faultinject.PointKernelNaN); fired != 1 {
		t.Fatalf("kernel-NaN rule fired %d times, want 1", fired)
	}
	if err == nil {
		// Corruption went through silently: Health must catch it.
		h := f.Health()
		if h.Finite {
			t.Fatal("NaN-corrupted factorization reports finite factors")
		}
		if cerr := f.Check(); !errors.Is(cerr, ErrNotFinite) {
			t.Fatalf("Check on NaN factors reported %v, want ErrNotFinite", cerr)
		}
	}

	inject.DisarmAll()
	f2, err := s.Factor(a)
	if err != nil {
		t.Fatalf("factor after NaN injection run: %v", err)
	}
	if err := f2.Check(); err != nil {
		t.Fatalf("health check after recovery: %v", err)
	}
	chaosCheckSolve(t, f2, a)
}

// TestChaosPoolPoisonEviction leases a pooled factorization, poisons it
// with an injected refresh panic, and verifies Release drops it (counted in
// PoolStats.PoisonEvictions) instead of handing it to the next Acquire.
func TestChaosPoolPoisonEviction(t *testing.T) {
	inject := faultinject.New()
	a := chaosMatrix()
	pool := NewPool(PoolOptions{Options: Options{Threads: 4, BigBlockMin: 64, inject: inject}})

	lease, err := pool.Acquire(a)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()

	// A restamp, so the pooled Refactor runs the full sweep the panic is armed in.
	a = matgen.TransientStep(a, 1, 11)
	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepRefactor, SweepSet: true, Block: -1, Worker: -1, Times: 1,
	})
	lease, err = pool.Acquire(a)
	inject.DisarmAll()
	if err != nil {
		// The injected panic defeated the refactor fast path and the
		// recycled-storage factor both ran disarmed-free; acceptable as long
		// as the pool surfaced a typed error or recovered entirely.
		if !errors.Is(err, ErrInternalPanic) && !errors.Is(err, ErrSingular) {
			t.Fatalf("poisoned acquire reported untyped error: %v", err)
		}
		return
	}
	poisoned := lease.Stats(a).Poisoned
	lease.Release()
	st := pool.Stats()
	if poisoned && st.PoisonEvictions == 0 {
		t.Fatal("poisoned lease was re-cached instead of evicted")
	}

	// Whatever happened above, the pool must serve a healthy factorization
	// now that the injector is disarmed.
	lease, err = pool.Acquire(a)
	if err != nil {
		t.Fatalf("acquire after poison eviction: %v", err)
	}
	if err := lease.Check(); err != nil {
		t.Fatalf("pooled factorization unhealthy after recovery: %v", err)
	}
	chaosCheckSolve(t, lease.Factorization, a)
	lease.Release()
}
