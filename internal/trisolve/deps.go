package trisolve

import (
	"context"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// buildDeps derives, once per Solver, the coarse-block dependency
// structure of the BTF back-substitution: feeds[i] lists every off-block
// entry that couples a later block's solution into block i, ordered
// exactly as the serial sweep applies them (source block descending, then
// column ascending, then position ascending — so the parallel sweep is
// bit-for-bit identical to the serial one), and deps[i] lists the distinct
// source blocks, descending. The structure depends only on the sparsity
// pattern and therefore survives Refactor and FactorInto: a feed names its
// entry, and the pivot-order row it targets is read from the numeric's
// OffRows at solve time.
func (s *Solver) buildDeps() {
	s.depOnce.Do(func() {
		sym := s.num.Sym
		perm := s.num.Perm
		nb := sym.NumBlocks()
		feeds := make([][]feed, nb)
		q := int32(0) // OffRows index: off-block entries in column order
		for c := 0; c < sym.N; c++ {
			r0, _ := sym.BlockRange(sym.BlockOf(c))
			for p := perm.Colptr[c]; p < perm.Colptr[c+1]; p++ {
				i := perm.Rowidx[p]
				if i >= r0 {
					break // columns are row-sorted; the rest is diagonal-block
				}
				bi := sym.BlockOf(i)
				feeds[bi] = append(feeds[bi], feed{q, int32(c), int32(p)})
				q++
			}
		}
		deps := make([][]int, nb)
		for i := range feeds {
			fl := feeds[i]
			// Appended in (column asc, position asc) order; a stable sort by
			// source block descending reproduces the serial push order.
			sort.SliceStable(fl, func(a, b int) bool {
				return sym.BlockOf(int(fl[a].col)) > sym.BlockOf(int(fl[b].col))
			})
			last := -1
			for _, f := range fl {
				if bj := sym.BlockOf(int(f.col)); bj != last {
					deps[i] = append(deps[i], bj)
					last = bj
				}
			}
		}
		s.feeds, s.deps = feeds, deps
	})
}

// BlockOfColumn reports the coarse block containing original column j, or
// -1 when j is out of range (mirroring SolutionClosure, which skips
// out-of-range columns instead of panicking — the two are used together).
func (s *Solver) BlockOfColumn(j int) int {
	sym := s.num.Sym
	if j < 0 || j >= sym.N {
		return -1
	}
	return sym.BlockOf(int(sym.ColPos()[j]))
}

// SolutionClosure reports which coarse blocks' solution components can
// change when the listed original-index columns' values change: the blocks
// whose diagonal (factored) entries the columns touch, the blocks their
// coarse off-diagonal entries feed, and everything reachable from those
// through the block dependency structure — the reachability closure of the
// BTF coupling graph that `deps` encodes. A block absent from the result is
// guaranteed to produce a bit-for-bit identical solution component for the
// same right-hand side, which is what lets callers of the incremental
// refactorization path reuse cached per-block solution work.
//
// The result is freshly allocated (len NumBlocks); this is an analysis
// helper, not a hot-loop primitive.
func (s *Solver) SolutionClosure(changedCols []int) []bool {
	s.buildDeps()
	num := s.num
	sym := num.Sym
	perm := num.Perm
	nb := sym.NumBlocks()
	dirty := make([]bool, nb)
	colPos := sym.ColPos()
	for _, c := range changedCols {
		if c < 0 || c >= sym.N {
			continue
		}
		k := int(colPos[c])
		bj := sym.BlockOf(k)
		r0, _ := sym.BlockRange(bj)
		for p := perm.Colptr[k]; p < perm.Colptr[k+1]; p++ {
			i := perm.Rowidx[p]
			if i >= r0 {
				// Diagonal-block entry: the block's factors change, so its
				// solution does. Rows are sorted, so the rest of the column
				// is diagonal-block too.
				dirty[bj] = true
				break
			}
			// Coarse off-diagonal entry: feeds the owning block's solution.
			dirty[sym.BlockOf(i)] = true
		}
	}
	// Close downstream: deps[i] lists strictly later blocks, so one
	// descending pass reaches the fixed point.
	for i := nb - 1; i >= 0; i-- {
		if dirty[i] {
			continue
		}
		for _, j := range s.deps[i] {
			if dirty[j] {
				dirty[i] = true
				break
			}
		}
	}
	return dirty
}

// solveBlockParallel runs the single-RHS BTF back-substitution with
// independent coarse blocks scheduled across the worker goroutines.
// Blocks are assigned round-robin; each worker walks its blocks last to
// first, waits point-to-point (via the numeric engine's Signals fabric)
// only on the exact later blocks that feed each of its blocks, pulls those
// couplings, and solves the diagonal block. Rows of y belonging to block i
// are written only by i's owner, and y values of a feeding block are read
// only after its completion signal, so the sweep is race-free; the feed
// ordering makes it bit-for-bit identical to the serial sweep.
func (s *Solver) solveBlockParallel(ctx context.Context, rhs []float64) error {
	s.buildDeps()
	num := s.num
	sym := num.Sym
	n := sym.N
	ws := s.pool.get()
	y := ws.y
	for i, p := range num.RowPos() {
		y[p] = rhs[i]
	}
	offRow := num.OffRows()
	nb := sym.NumBlocks()
	stall := sym.Opts.StallTimeout
	armed := core.MonitorArmed(ctx, stall)
	ws.ctl.BeginSweep(armed)
	ctl := &ws.ctl
	sig := ws.signals(nb)
	var mon *core.SweepMonitor
	if armed {
		mon = core.StartSweepMonitor(core.MonitorSpec{
			Ctx: ctx, Stall: stall, Sweep: "solve", Ctl: ctl,
			Pending: func() (int, int) {
				blk := sig.FirstPending()
				if blk < 0 {
					return -1, -1
				}
				return blk, (nb - 1 - blk) % s.workers
			},
		})
	}
	rec := sym.Opts.Trace
	inject := sym.Opts.Inject
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Panic isolation: record the first panic and fail the fabric,
			// so siblings blocked in dependency waits abort (Wait returns
			// false) instead of deadlocking on the dead worker's slots.
			defer func() {
				if r := recover(); r != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = panicErr(r)
					}
					errMu.Unlock()
					sig.Fail()
				}
			}()
			inject.WorkerPanic(faultinject.SweepSolve, w)
			// Descending order per worker: every dependency points at a
			// strictly later block, so the schedule is acyclic and
			// deadlock-free. When traced, each block's event spans the
			// coupling pull plus the diagonal solve, carrying the blocked
			// nanoseconds its dependency waits cost.
			var waitNs int64
			for blk := nb - 1 - w; blk >= 0; blk -= s.workers {
				if ctl.Canceled() {
					return
				}
				for _, j := range s.deps[blk] {
					if rec == nil {
						if !sig.Wait(j) {
							return
						}
					} else {
						d, ok := sig.WaitTimed(j)
						waitNs += d
						if !ok {
							return
						}
					}
				}
				t0 := rec.Now()
				for _, f := range s.feeds[blk] {
					if xc := y[f.col]; xc != 0 {
						y[offRow[f.q]] -= num.Perm.Values[f.p] * xc
					}
				}
				num.SolveBlock(blk, y)
				if rec != nil {
					rec.Record(trace.Event{Start: t0, End: rec.Now(), Wait: waitNs,
						Worker: trace.SolveWorker(w), Block: int32(blk), Kind: trace.KindSolveBlock, Phase: trace.PhaseSolve})
					waitNs = 0
				}
				inject.StallPoint(faultinject.SweepSolve, blk)
				sig.Set(blk)
			}
		}(w)
	}
	early := false
	if armed {
		// Per-block join: each wait breaks on cancellation, so a fired
		// deadline or stall verdict returns to the caller while a wedged
		// straggler is still asleep inside a kernel.
		for blk := 0; blk < nb; blk++ {
			if !sig.Wait(blk) {
				early = true
				break
			}
		}
	}
	merr := mon.Stop()
	if early && merr == nil {
		// The fabric broke by Fail (a worker panic), not by our monitor:
		// workers unwind promptly, so the full join stays cheap and makes
		// the error read below race-free.
		early = false
	}
	if !early {
		wg.Wait()
	}
	if early {
		// Stragglers may still write ws.y; hand the workspace to a reaper
		// that repools it only once every worker has exited. rhs itself is
		// untouched — workers only write the workspace copy.
		go func() {
			wg.Wait()
			s.pool.put(ws)
		}()
		return merr
	}
	defer s.pool.put(ws)
	if firstErr != nil {
		// rhs is left as-is (partially solved values never leave y); the
		// factorization itself is untouched — solves only read it.
		return firstErr
	}
	if merr != nil {
		return merr
	}
	for k := 0; k < n; k++ {
		rhs[sym.ColPerm[k]] = y[k]
	}
	return nil
}
