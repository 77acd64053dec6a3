package trisolve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/matgen"
)

// chaosSolver builds a factorization whose solve sweeps consult inject,
// with the dependency-scheduled block-parallel path forced on.
func chaosSolver(t *testing.T, inject *faultinject.Injector) (*Solver, *core.Numeric, []float64, []float64) {
	t.Helper()
	a := matgen.Circuit(matgen.CircuitParams{
		N: 700, BTFPct: 50, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 11,
	})
	opts := core.DefaultOptions()
	opts.Threads = 4
	opts.BigBlockMin = 64
	opts.Inject = inject
	num, err := core.FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(num, Options{Workers: 4, BlockParallelMin: 1})
	x := randRHS(a.N, 7)
	b := make([]float64, a.N)
	a.MulVec(b, x)
	return s, num, b, x
}

// TestChaosSolveWorkerPanic injects a panic into one worker of the
// block-parallel solve sweep: the call must return ErrInternalPanic (not
// deadlock the sibling workers waiting on the dead worker's blocks), leave
// the factorization unharmed, and solve correctly once disarmed.
func TestChaosSolveWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	s, _, b, x := chaosSolver(t, inject)

	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepSolve, SweepSet: true, Block: -1, Worker: 2, Times: 1,
	})
	got := append([]float64(nil), b...)
	err := s.Solve(got)
	if err == nil {
		t.Fatal("injected worker panic surfaced no error")
	}
	if !errors.Is(err, core.ErrInternalPanic) {
		t.Fatalf("solve error %v does not wrap ErrInternalPanic", err)
	}
	if !errors.Is(err, faultinject.ErrInjectedPanic) {
		t.Fatalf("solve error %v lost the panic value", err)
	}

	// The factorization is read-only to solves: the very next call succeeds.
	got = append([]float64(nil), b...)
	if err := s.Solve(got); err != nil {
		t.Fatalf("solve after recovered panic: %v", err)
	}
	checkSolution(t, got, x)
}

// TestChaosSolveManyWorkerPanic covers the panel-parallel multi-RHS sweep's
// isolation: one worker dies, the batch call reports it, the solver
// survives.
func TestChaosSolveManyWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	s, _, b, x := chaosSolver(t, inject)

	// Four 8-wide panels, so all four workers start (worker 0 among them).
	batch := make([][]float64, 4*gp.PanelLanes)
	for c := range batch {
		batch[c] = append([]float64(nil), b...)
	}
	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepSolve, SweepSet: true, Block: -1, Worker: 0, Times: 1,
	})
	err := s.SolveMany(batch)
	if !errors.Is(err, core.ErrInternalPanic) {
		t.Fatalf("SolveMany error %v does not wrap ErrInternalPanic", err)
	}

	for c := range batch {
		batch[c] = append([]float64(nil), b...)
	}
	if err := s.SolveMany(batch); err != nil {
		t.Fatalf("SolveMany after recovered panic: %v", err)
	}
	for _, got := range batch {
		checkSolution(t, got, x)
	}
}

// TestChaosSolveStall stalls a block's completion-signal publication: the
// sweep must simply absorb the latency — identical results, no deadlock.
func TestChaosSolveStall(t *testing.T) {
	inject := faultinject.New()
	s, num, b, x := chaosSolver(t, inject)

	want := append([]float64(nil), b...)
	num.Solve(want)

	inject.Arm(faultinject.PointStall, faultinject.Rule{
		Sweep: faultinject.SweepSolve, SweepSet: true, Block: -1, Worker: -1,
		Times: 3, Stall: 10 * time.Millisecond,
	})
	got := append([]float64(nil), b...)
	if err := s.Solve(got); err != nil {
		t.Fatalf("stalled solve: %v", err)
	}
	if fired := inject.Fired(faultinject.PointStall); fired == 0 {
		t.Fatal("stall rule never fired")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stalled solve diverged from serial at %d: %v != %v", i, got[i], want[i])
		}
	}
	checkSolution(t, got, x)
}
