package trisolve

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gp"
)

// TestSolveManyStallWatchdog wedges one panel of a panel-parallel batch
// solve for far longer than StallTimeout: the watchdog aborts the sweep with
// ErrStalled naming the solve, the sweep joins before the call returns —
// every panel whole — and the very next batch succeeds.
func TestSolveManyStallWatchdog(t *testing.T) {
	inject := faultinject.New()
	a := testMatrix(t)
	const budget = 40 * time.Millisecond
	opts := core.DefaultOptions()
	opts.Threads = 2
	opts.BigBlockMin = 64
	opts.Inject = inject
	opts.StallTimeout = budget
	num, err := core.FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(num, Options{Workers: 2})
	const panels = 6
	want, batch := solvedBatch(num, a.N, panels*gp.PanelLanes)
	orig := cloneVecs(batch)
	const stall = 6 * budget
	inject.Arm(faultinject.PointStall, faultinject.Rule{
		Sweep: faultinject.SweepSolve, SweepSet: true, Block: -1, Worker: -1,
		Times: 1, Stall: stall,
	})
	t0 := time.Now()
	err = s.SolveManyCtx(context.Background(), batch)
	if elapsed := time.Since(t0); elapsed < stall {
		t.Fatalf("stalled batch returned after %v, before its wedged worker (%v): the sweep did not join", elapsed, stall)
	}
	if !errors.Is(err, core.ErrStalled) {
		t.Fatalf("stalled batch error %v does not match ErrStalled", err)
	}
	var se *core.StallError
	if !errors.As(err, &se) {
		t.Fatalf("stalled batch error %v carries no *StallError", err)
	}
	if se.Sweep != "solve" || se.Idle < budget {
		t.Fatalf("StallError diagnostics wrong: %+v", se)
	}
	checkWholePanels(t, batch, orig, want)

	// Solves only read the factorization: the next batch succeeds.
	if err := s.SolveMany(orig); err != nil {
		t.Fatalf("SolveMany after stall: %v", err)
	}
	for i := range orig {
		if !slices.Equal(orig[i], want[i]) {
			t.Fatalf("rhs %d after stall differs from the serial solve", i)
		}
	}
}

// TestSolveManyCtxArmedPath runs the panel-parallel batch solve with a
// live (unfired) cancellable context: the armed monitor path must produce
// exactly the serial results and shut the monitor down cleanly.
func TestSolveManyCtxArmedPath(t *testing.T) {
	a := testMatrix(t)
	num := factor(t, a, 2)
	s := New(num, Options{Workers: 4})
	const k = 3*gp.PanelLanes + 2 // four panels: the parallel path, with a tail
	want, batch := solvedBatch(num, a.N, k)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.SolveManyCtx(ctx, batch); err != nil {
		t.Fatalf("SolveManyCtx: %v", err)
	}
	for i := range batch {
		if !slices.Equal(batch[i], want[i]) {
			t.Fatalf("rhs %d differs from the serial solve", i)
		}
	}
}

// solvedBatch returns k random right-hand sides and their serial solutions.
func solvedBatch(num *core.Numeric, n, k int) (want, batch [][]float64) {
	batch = make([][]float64, k)
	for i := range batch {
		batch[i] = randRHS(n, int64(20+i))
	}
	want = cloneVecs(batch)
	for _, w := range want {
		num.Solve(w)
	}
	return want, batch
}

func cloneVecs(vs [][]float64) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = slices.Clone(v)
	}
	return out
}

// checkWholePanels asserts the state a canceled batch is left in: the sweep
// has joined, so every panel is either scattered back completely (== the
// serial solution) or untouched. It returns the number of solved panels.
func checkWholePanels(t *testing.T, batch, orig, want [][]float64) (solved int) {
	t.Helper()
	for lo := 0; lo < len(batch); lo += gp.PanelLanes {
		hi := min(lo+gp.PanelLanes, len(batch))
		done := slices.Equal(batch[lo], want[lo])
		for c := lo; c < hi; c++ {
			ref := orig[c]
			if done {
				ref = want[c]
			}
			if !slices.Equal(batch[c], ref) {
				t.Fatalf("rhs %d: panel %d is neither fully solved nor untouched", c, lo/gp.PanelLanes)
			}
		}
		if done {
			solved++
		}
	}
	return solved
}

// countdownCtx reports Canceled from its left-th Err call on: a context
// that fires at an exact point between two panels of the serial sweep.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestSolveManyCtxCancelBetweenPanels fires the context between two panels
// of the serial sweep: the call returns ErrCanceled with exactly the panels
// before the cancellation solved and the rest untouched.
func TestSolveManyCtxCancelBetweenPanels(t *testing.T) {
	a := testMatrix(t)
	num := factor(t, a, 1)
	s := New(num, Options{Workers: 1})
	want, batch := solvedBatch(num, a.N, 5*gp.PanelLanes)
	orig := cloneVecs(batch)
	// One Err call at entry, one before each panel: fire before the third.
	ctx := &countdownCtx{Context: context.Background(), left: 3}
	if err := s.SolveManyCtx(ctx, batch); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("SolveManyCtx = %v, want ErrCanceled", err)
	}
	if solved := checkWholePanels(t, batch, orig, want); solved != 2 {
		t.Fatalf("%d panels solved before the cancellation, want 2", solved)
	}
}

// TestSolveManyCtxDeadlineMidBatch expires a deadline while the workers of
// the panel-parallel sweep sit between panels (every panel completion is
// stalled): they stop picking up panels, the call returns
// ErrDeadlineExceeded only after the sweep has joined — every panel whole —
// well before the stalled batch could have finished, and the solver is
// unharmed.
func TestSolveManyCtxDeadlineMidBatch(t *testing.T) {
	inject := faultinject.New()
	a := testMatrix(t)
	opts := core.DefaultOptions()
	opts.Threads = 2
	opts.BigBlockMin = 64
	opts.Inject = inject
	num, err := core.FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(num, Options{Workers: 4})
	const panels = 40
	want, batch := solvedBatch(num, a.N, panels*gp.PanelLanes)
	orig := cloneVecs(batch)
	const stall = 40 * time.Millisecond // 40 panels on 4 workers: 400 ms unabridged
	inject.Arm(faultinject.PointStall, faultinject.Rule{
		Sweep: faultinject.SweepSolve, SweepSet: true, Block: -1, Worker: -1, Stall: stall,
	})
	ctx, cancel := context.WithTimeout(context.Background(), stall/2)
	defer cancel()
	t0 := time.Now()
	err = s.SolveManyCtx(ctx, batch)
	if elapsed := time.Since(t0); elapsed >= panels/4*stall*3/4 {
		t.Fatalf("deadline abort took %v, want early return", elapsed)
	}
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("SolveManyCtx past deadline: %v, want ErrDeadlineExceeded", err)
	}
	if solved := checkWholePanels(t, batch, orig, want); solved == 0 || solved == panels {
		t.Fatalf("%d of %d panels solved, want a partial batch", solved, panels)
	}

	inject.DisarmAll()
	if err := s.SolveMany(batch[:gp.PanelLanes]); err != nil {
		t.Fatalf("SolveMany after deadline abort: %v", err)
	}
}

// TestSolveCtxBackgroundAllocs pins the fast-path contract: SolveCtx and
// SolveManyCtx with context.Background() arm no monitor and stay on the
// allocation-free steady-state path.
func TestSolveCtxBackgroundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are unrepresentative")
	}
	a := testMatrix(t)
	num := factor(t, a, 1)
	s := New(num, Options{Workers: 1})
	ctx := context.Background()
	b := randRHS(a.N, 3)
	s.SolveCtx(ctx, b) // warm the pool
	batch := [][]float64{randRHS(a.N, 4), randRHS(a.N, 5)}
	s.SolveManyCtx(ctx, batch) // warm the panel buffer
	if avg := testing.AllocsPerRun(50, func() { s.SolveCtx(ctx, b) }); avg > 0.5 {
		t.Errorf("SolveCtx(Background) allocates %.1f objects/call in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { s.SolveManyCtx(ctx, batch) }); avg > 0.5 {
		t.Errorf("SolveManyCtx(Background) allocates %.1f objects/call in steady state, want 0", avg)
	}
}
