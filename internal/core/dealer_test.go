package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// dealerMatrix has one fine-ND block and three small blocks under
// optsWithThreads(4) with BigBlockMin 64: fewer small blocks than threads,
// so one thread gets no dealing worker.
func dealerMatrix() *sparse.CSC {
	return matgen.Circuit(matgen.CircuitParams{N: 400, BTFPct: 3, Blocks: 2, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 2})
}

// dealerOpts returns options for dealerMatrix at the given thread count and
// BigBlockMin, with the analysis checked to leave fewer small blocks than
// threads.
func dealerOpts(t *testing.T, a *sparse.CSC, threads, bigBlockMin int) (Options, *Symbolic) {
	t.Helper()
	opts := optsWithThreads(threads)
	opts.BigBlockMin = bigBlockMin
	sym, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sym.smallBlocks); n == 0 || n >= threads {
		t.Fatalf("test premise broken: %d small blocks at Threads %d", n, threads)
	}
	return opts, sym
}

// TestDealerWorkerPanic panics a dealing worker of a parallel sweep with more
// threads than small blocks, fresh and refresh: the sweep must return
// ErrInternalPanic (never hang, never lose the panic to a worker that runs
// after the driver returned), and the next sweep must recover. Run it with
// -count=50 after touching the dealer.
func TestDealerWorkerPanic(t *testing.T) {
	a := dealerMatrix()
	steps := []*sparse.CSC{matgen.TransientStep(a, 1, 3), matgen.TransientStep(a, 2, 3)}
	for _, tc := range []struct {
		name                 string
		threads, bigBlockMin int
	}{
		// Every block small: every consultation is a dealing worker's.
		{"small-only", 8, 1 << 20},
		{"with-nd", 4, 64},
	} {
		for _, sweep := range []faultinject.Sweep{faultinject.SweepFactor, faultinject.SweepRefactor} {
			what := map[faultinject.Sweep]string{faultinject.SweepFactor: "FactorInto", faultinject.SweepRefactor: "Refactor"}[sweep]
			t.Run(tc.name+"/"+what, func(t *testing.T) {
				_, sym := dealerOpts(t, a, tc.threads, tc.bigBlockMin)
				inject := faultinject.New()
				sym.Opts.Inject = inject
				num, err := Factor(a, sym)
				if err != nil {
					t.Fatal(err)
				}
				run := func(m *sparse.CSC) error {
					if sweep == faultinject.SweepFactor {
						return num.FactorInto(m)
					}
					return num.Refactor(m)
				}
				inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
					Sweep: sweep, SweepSet: true, Block: -1, Worker: -1, Times: 1,
				})
				err = run(steps[0])
				if !errors.Is(err, ErrInternalPanic) || !errors.Is(err, faultinject.ErrInjectedPanic) {
					t.Fatalf("sweep with an injected worker panic returned %v, want ErrInternalPanic", err)
				}
				if fired := inject.Fired(faultinject.PointWorkerPanic); fired != 1 {
					t.Fatalf("worker-panic rule fired %d times, want 1", fired)
				}
				if !num.Poisoned() {
					t.Fatal("panicked sweep did not poison the numeric")
				}
				inject.DisarmAll()
				if err := run(steps[1]); err != nil {
					t.Fatalf("sweep after the recovered panic: %v", err)
				}
				if num.Poisoned() {
					t.Fatal("recovering sweep left the numeric poisoned")
				}
				solveCheck(t, steps[1], num, 1e-9)
			})
		}
	}
}

// TestDealerAllWorkersPanic panics every dealing worker on its first dirty
// block, so no survivor may be left to take the runs still on the cursor:
// the panic release must drain them, or the driver's join never returns.
// Every panic that fired is counted once.
func TestDealerAllWorkersPanic(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{N: 700, BTFPct: 50, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 11})
	opts := optsWithThreads(2)
	opts.BigBlockMin = 1 << 20
	inject := faultinject.New()
	opts.Inject = inject
	num, err := FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs := len(num.Sym.smallRuns) - 1; runs <= 2 {
		t.Fatalf("test premise broken: %d runs for 2 dealing workers", runs)
	}
	inject.Arm(faultinject.PointWorkerPanic, faultinject.Rule{
		Sweep: faultinject.SweepRefactor, SweepSet: true, Block: -1, Worker: -1, Times: 2,
	})
	steps := []*sparse.CSC{matgen.TransientStep(a, 1, 3), matgen.TransientStep(a, 2, 3)}
	if err := num.Refactor(steps[0]); !errors.Is(err, ErrInternalPanic) {
		t.Fatalf("refresh with every dealer panicking returned %v, want ErrInternalPanic", err)
	}
	if fired := inject.Fired(faultinject.PointWorkerPanic); fired < 1 || int64(fired) != num.Panics() {
		t.Fatalf("%d worker panics fired, %d counted", fired, num.Panics())
	}
	inject.DisarmAll()
	if err := num.Refactor(steps[1]); err != nil {
		t.Fatalf("refresh after the recovered panics: %v", err)
	}
	solveCheck(t, steps[1], num, 1e-9)
}

// TestDealerStallLane wedges the dealing worker that takes one small block:
// the watchdog's StallError names that block and, as Lane, the worker that
// took it and still holds it, in [0, Threads).
func TestDealerStallLane(t *testing.T) {
	a := dealerMatrix()
	opts, sym := dealerOpts(t, a, 4, 64)
	inject := faultinject.New()
	sym.Opts.Inject, sym.Opts.StallTimeout = inject, 50*time.Millisecond
	num, err := Factor(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	blk := sym.smallBlocks[0]
	next := matgen.TransientStep(a, 1, 3)
	inject.Arm(faultinject.PointStall, faultinject.Rule{
		Sweep: faultinject.SweepRefactor, SweepSet: true, Block: blk, Worker: -1, Times: 1, Stall: 600 * time.Millisecond,
	})
	err = num.Refactor(next)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("stalled refresh returned %v, want a *StallError", err)
	}
	if se.Block != blk {
		t.Fatalf("StallError names block %d, want the stalled small block %d", se.Block, blk)
	}
	if se.Lane < 0 || se.Lane >= opts.Threads {
		t.Fatalf("StallError names lane %d, want a dealing worker in [0, %d)", se.Lane, opts.Threads)
	}
	// The straggler is still asleep holding blk.
	if holder := int(num.took[blk].Load()) - 1; holder != se.Lane {
		t.Fatalf("StallError names lane %d, block %d is held by worker %d", se.Lane, blk, holder)
	}
	inject.DisarmAll()
	if err := num.Refactor(matgen.TransientStep(a, 2, 3)); err != nil {
		t.Fatalf("Refactor after the stall: %v", err)
	}
	if holder := num.took[blk].Load(); holder != 0 {
		t.Fatalf("block %d still marked held by worker %d after the drain", blk, holder-1)
	}
}

// TestDealerStallTrace is TestDealerStallLane's stalled refresh with a
// trace recorder attached (run it with -race): the stalled sweep returns
// while its straggler is still in flight, so it records no summary and
// reads no ring entry the straggler may still write; the clean refresh
// after it records its profile.
func TestDealerStallTrace(t *testing.T) {
	a := dealerMatrix()
	_, sym := dealerOpts(t, a, 4, 64)
	inject := faultinject.New()
	rec := trace.NewRecorder(0)
	sym.Opts.Inject, sym.Opts.StallTimeout, sym.Opts.Trace = inject, 50*time.Millisecond, rec
	num, err := Factor(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	inject.Arm(faultinject.PointStall, faultinject.Rule{
		Sweep: faultinject.SweepRefactor, SweepSet: true, Block: sym.smallBlocks[0], Worker: -1, Times: 1, Stall: 300 * time.Millisecond,
	})
	before := len(rec.Summaries())
	var se *StallError
	if err := num.Refactor(matgen.TransientStep(a, 1, 3)); !errors.As(err, &se) {
		t.Fatalf("stalled refresh returned %v, want a *StallError", err)
	}
	if got := len(rec.Summaries()); got != before {
		t.Fatalf("the stalled sweep recorded %d summaries, want none", got-before)
	}
	inject.DisarmAll()
	if err := num.Refactor(matgen.TransientStep(a, 2, 3)); err != nil {
		t.Fatalf("Refactor after the stall: %v", err)
	}
	sums := rec.Summaries()
	if len(sums) != before+1 {
		t.Fatalf("the clean refresh recorded %d summaries, want 1", len(sums)-before)
	}
	if s := sums[len(sums)-1]; s.Events == 0 || s.WallSeconds <= 0 {
		t.Fatalf("the clean refresh's profile is empty: %+v", s)
	}
}

// BenchmarkSweepThreads times the parallel sweeps the dealing workers serve,
// a fresh FactorInto and a full Refactor, at Threads 2 and 4 on the
// bench-xyce and bench-hcircuit patterns (the benchmark harness runs
// Threads 1 only). Each call alternates between two transient restamps, so
// every Refactor sees a full change.
func BenchmarkSweepThreads(b *testing.B) {
	for _, in := range []struct {
		name string
		p    matgen.CircuitParams
	}{
		{"bench-xyce", matgen.CircuitParams{N: 30000, BTFPct: 21, Blocks: 1000, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 111}},
		{"bench-hcircuit", matgen.CircuitParams{N: 4800, BTFPct: 13, Blocks: 80, Core: matgen.CoreGrid, ExtraDensity: 0.3, Seed: 117}},
	} {
		a := matgen.Circuit(in.p)
		steps := []*sparse.CSC{matgen.TransientStep(a, 1, 5), matgen.TransientStep(a, 2, 5)}
		for _, threads := range []int{2, 4} {
			opts := DefaultOptions()
			opts.Threads = threads
			num, err := FactorDirect(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			k := 0
			for _, op := range []struct {
				name string
				run  func(*sparse.CSC) error
			}{{"fresh", num.FactorInto}, {"refresh", num.Refactor}} {
				b.Run(fmt.Sprintf("%s/T%d/%s", in.name, threads, op.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k++
						if err := op.run(steps[k%2]); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
