package trisolve

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gp"
)

// chaosSolver builds a four-worker solver over a factorization whose solve
// sweeps consult inject.
func chaosSolver(t *testing.T, inject *faultinject.Injector) (*Solver, []float64, []float64) {
	t.Helper()
	a := testMatrix(t)
	opts := core.DefaultOptions()
	opts.Threads = 4
	opts.BigBlockMin = 64
	opts.Inject = inject
	num, err := core.FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(num, Options{Workers: 4})
	x := randRHS(a.N, 7)
	b := make([]float64, a.N)
	a.MulVec(b, x)
	return s, b, x
}

// TestChaosSolveManyWorkerPanic covers the panel-parallel multi-RHS sweep's
// isolation: one worker dies, the batch call reports it, the solver
// survives.
func TestChaosSolveManyWorkerPanic(t *testing.T) {
	inject := faultinject.New()
	s, b, x := chaosSolver(t, inject)

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
