package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/order"
	"repro/internal/order/btf"
	"repro/internal/order/matching"
	"repro/internal/order/nd"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Symbolic is Basker's reusable analysis: the coarse BTF structure, the
// order the parallel sweeps deal the fine-BTF blocks in, and the fine-ND
// trees with all orderings composed into a single pair of global
// permutations.
type Symbolic struct {
	N        int
	Opts     Options
	RowPerm  []int // new-to-old, all orderings composed
	ColPerm  []int
	BlockPtr []int // coarse BTF boundaries in permuted space

	// kind[b]: blockSmall or blockND per coarse block.
	kind []blockKind
	// ndsym[b] is non-nil for fine-ND blocks; ndBlocks lists their ids in
	// ascending order (the sweep launches one cooperative team per entry).
	ndsym    []*ndSym
	ndBlocks []int
	// smallBlocks lists the small coarse blocks by descending estNnz (ties
	// in block order), and smallRuns cuts it into runs of about equal
	// estimated size, eight per thread: run r is
	// smallBlocks[smallRuns[r]:smallRuns[r+1]]. A parallel sweep's workers
	// take the runs from one cursor, largest blocks first. A run keeps
	// neighbouring blocks on one worker: dealt one block at a time, the
	// small blocks cost twice the CPU at four threads on the 30k xyce
	// pattern, most likely because two workers wrote neighbouring blocks'
	// storage at once.
	smallBlocks, smallRuns []int
	// estNnz[b] is the factor size estimate for small blocks.
	estNnz []int
	// blockOf[i] is the coarse block containing permuted row/column i,
	// built once at analysis time (NnzLU and the trisolve dependency
	// builder both need it; rebuilding it per call was measurable).
	blockOf []int32
	// colPos[j] is the permuted position of original column j, the inverse
	// of ColPerm: the solves unpack solutions and the incremental paths
	// locate changed columns through it.
	colPos []int32
	// plan caches the entry maps from the analyzed matrix's pattern into the
	// permuted matrix and every diagonal block, so every sweep starts from a
	// pure value gather instead of a Permute+ExtractBlock per call. Read-only
	// after Analyze; shared by all factorizations of this analysis.
	plan *factorPlan

	BTFPercent float64
}

// factorPlan is the gather state of the analyzed sparsity pattern: a matrix
// with that pattern is permuted and split into diagonal blocks by flat value
// gathers through these maps. Analyze builds it; every sweep of every
// factorization of the analysis runs on it.
type factorPlan struct {
	// colptr/rowidx are a private copy of the planned pattern, verified
	// against every caller matrix before its values are gathered: a
	// same-size different-pattern matrix must fail loudly, never scatter
	// into the wrong positions. The check is a flat integer compare —
	// cheaper than the value gather it guards.
	colptr, rowidx []int
	// perm is the permuted pattern (its values are the analyzed matrix's);
	// factorizations share its index slices and gather into private values.
	perm *sparse.CSC
	// permMap sends entry t of perm to its source entry in the caller's CSC.
	permMap []int
	// offPtr[c]..offPtr[c+1] number the coarse off-block entries of permuted
	// column c: the leading entries of the (row-sorted) column, those above
	// its diagonal block. The solves walk them through this prefix count
	// instead of comparing rows, and Numeric.offRow holds their rows.
	offPtr []int32
	// smallPat/smallSrc cache each small diagonal block's pattern and its
	// entry map into the permuted matrix.
	smallPat []*sparse.CSC
	smallSrc [][]int
	// grids[blk] caches a fine-ND block's 2D input-block patterns and their
	// entry maps into the permuted matrix (nil for small blocks).
	grids []*ndGrid
}

// matches verifies a's sparsity structure against the planned pattern.
func (pl *factorPlan) matches(a *sparse.CSC) bool {
	return sparse.SamePattern(pl.colptr, pl.rowidx, a)
}

// checkColptr verifies the entry count, the slice lengths and the column
// pointers of an a of the planned dimensions — all an incremental call
// checks of the columns its change set does not list.
func (pl *factorPlan) checkColptr(a *sparse.CSC) error {
	nnz := len(pl.rowidx)
	if len(a.Colptr) != len(pl.colptr) || a.Nnz() != nnz || len(a.Rowidx) < nnz || len(a.Values) < nnz {
		return fmt.Errorf("core: refactor pattern mismatch: %d entries (%d rows, %d values), analyzed %d",
			a.Nnz(), len(a.Rowidx), len(a.Values), nnz)
	}
	for j, c := range pl.colptr {
		if a.Colptr[j] != c {
			return fmt.Errorf("core: refactor pattern mismatch in column %d", j-1)
		}
	}
	return nil
}

// checkPattern is matches for an a of the planned dimensions, reporting
// where the structures part.
func (pl *factorPlan) checkPattern(a *sparse.CSC) error {
	if err := pl.checkColptr(a); err != nil {
		return err
	}
	want, got := pl.rowidx, a.Rowidx[:len(pl.rowidx)]
	// Skip equal runs eight rows per branch; the loop below locates the
	// first mismatch.
	t := 0
	for ; t+8 <= len(want); t += 8 {
		w, g := want[t:t+8:t+8], got[t:t+8:t+8]
		if (w[0]^g[0])|(w[1]^g[1])|(w[2]^g[2])|(w[3]^g[3])|
			(w[4]^g[4])|(w[5]^g[5])|(w[6]^g[6])|(w[7]^g[7]) != 0 {
			break
		}
	}
	for ; t < len(want); t++ {
		if got[t] != want[t] {
			return fmt.Errorf("core: refactor pattern mismatch at entry %d", t)
		}
	}
	return nil
}

// PatternMatches reports whether a has exactly the sparsity pattern this
// analysis was computed for (the pattern every planned fast path requires).
func (s *Symbolic) PatternMatches(a *sparse.CSC) bool {
	return s.plan.matches(a)
}

type blockKind uint8

const (
	blockSmall blockKind = iota
	blockND
)

// NumBlocks reports the number of coarse BTF blocks.
func (s *Symbolic) NumBlocks() int { return len(s.BlockPtr) - 1 }

// BlockRange reports the permuted row/column range [r0, r1) of coarse
// block blk.
func (s *Symbolic) BlockRange(blk int) (int, int) {
	return s.BlockPtr[blk], s.BlockPtr[blk+1]
}

// IsND reports whether coarse block blk is factored by the fine-ND engine.
func (s *Symbolic) IsND(blk int) bool { return s.kind[blk] == blockND }

// BlockOf reports the coarse block containing permuted index i.
func (s *Symbolic) BlockOf(i int) int { return int(s.blockOf[i]) }

// ColPos returns the inverse of ColPerm: ColPos()[j] is the permuted
// position of original column j. Read-only.
func (s *Symbolic) ColPos() []int32 { return s.colPos }

// NumNDBlocks reports how many coarse blocks use the fine-ND engine.
func (s *Symbolic) NumNDBlocks() int { return len(s.ndBlocks) }

// Numeric holds a completed factorization.
type Numeric struct {
	Sym   *Symbolic
	Perm  *sparse.CSC // fully permuted matrix (off-block entries for solve)
	small []*gp.Factors
	nd    []*ndNum
	// nnzLU caches |L+U|, recounted at the end of every sweep that built or
	// replaced factors so Stats and FillDensity never recount it.
	nnzLU int
	// rowPos and offRow are the forward solves' pivot-order layout, rebuilt
	// next to nnzLU (never inside a solve: solves are concurrent readers).
	// rowPos[i] is the position of caller row i in pivot order — RowPerm
	// composed with every small block's and every fine-ND tree block's row
	// pivots — so a right-hand side is permuted once on the way in and every
	// diagonal block is then solved in place. offRow lists the rows of the
	// coarse off-block entries (plan.offPtr numbers them column by column)
	// in the pivot order of the blocks they target; Perm's pattern is shared
	// with the plan and keeps the unpivoted rows.
	rowPos []int32
	offRow []int32
	// SyncWaits aggregates contended point-to-point waits; SyncWaitNs
	// aggregates the wall-clock nanoseconds those blocked waits cost across
	// the last numeric sweep — the paper's point-to-point sync overhead
	// (2.3 % of runtime in §IV), measured even when tracing is off because
	// the fabrics time only their contended slow paths.
	SyncWaits  int64
	SyncWaitNs int64
	// pivotFallbacks counts per-block fresh-pivot fallbacks taken by
	// refresh sweeps (pivot drift defeating a reused sequence); lastDirty
	// and dirtyTotal track the per-call and cumulative dirty coarse-block
	// counts of the partial refreshes (Refactor, RefactorPartial).
	pivotFallbacks atomic.Int64
	lastDirty      int
	dirtyTotal     int64

	// sig, errs, failed and refit are the state of the one sweep scheduler
	// (runSweep), shared by every mode — sweeps are mutually exclusive by
	// contract — and reset, never reallocated, between sweeps: sig has one
	// completion slot per coarse block, which the driver joins on
	// point-to-point; errs[blk] records a failed block; failed makes
	// not-yet-started blocks skip their work (every slot is still signalled,
	// so the join always quiesces); refit reports that a pivot-drift fallback
	// replaced a block's factors, so |L+U| must be recounted.
	sig    *EpochSignals
	errs   []error
	failed atomic.Bool
	refit  atomic.Bool
	// cursor counts the runs of Symbolic.smallBlocks the dealing workers of
	// a parallel sweep have taken; took[blk] is 1 + the worker holding small
	// block blk, 0 while none does; held[t] is the cursor count of the run
	// dealing worker t took last, which its panic release sets.
	cursor atomic.Int64
	took   []atomic.Int32
	held   []int
	// mode and dirty are the running parallel sweep's mode and mask, set
	// before its detached lanes start (goLane) and read by them.
	mode  sweepMode
	dirty *incState
	// factorWS[t] is fine-BTF worker t's pooled Gilbert–Peierls workspace;
	// lazily built, reused forever.
	factorWS []*gp.Workspace
	// smallIn[blk] is the gather target of small block blk (pattern shared
	// with the plan, values private). It holds the block's last gathered
	// input between sweeps: a partial sweep forwards only the changed values
	// into it.
	smallIn []*sparse.CSC

	// inc is the change-tracking state of the partial refreshes (Refactor
	// below half the columns changed, RefactorPartial), built on first use;
	// changed is Refactor's reusable list of changed permuted columns.
	inc     *incState
	changed []int32
	// incPoisoned remembers that the last sweep failed, leaving the resident
	// values unspecified: the next incremental call must run a full refresh
	// instead of trusting its change set. Cleared by any successful sweep.
	incPoisoned bool
	// repivot remembers that a modeFactor sweep failed part-way: the blocks it
	// reached hold reset pivot vectors and half-built factor patterns, which
	// no fixed-pattern refresh may walk, so the next full sweep runs in
	// modeFactor whatever was asked. Cleared by a successful modeFactor sweep.
	repivot bool
	// hooks instruments the scheduler for tests (nil in production).
	hooks *schedHooks

	// panicMu/panicErr/panics are the panic-isolation state: the launcher
	// recovers every lane panic of a parallel sweep (a fine-ND team
	// member's on its block's lane), notePanic records the first one here,
	// and the lane's release hook force-sets the completion slots it owns
	// so sibling workers drain. The driver surfaces the record as
	// ErrInternalPanic and poisons the numeric.
	panicMu  sync.Mutex
	panicErr error
	panics   atomic.Int64
	// pivotTolOverride, when positive, replaces Opts.PivotTol for this
	// numeric's sweeps — the graceful-degradation chain tightens pivoting
	// per Numeric without mutating the shared Symbolic's Options.
	pivotTolOverride float64

	// sweep is the cancellation fabric every sync primitive of this
	// numeric's sweeps binds to: the context-accepting entry points and the
	// stall watchdog cancel through it, workers poll it between blocks, and
	// its inflight count lets a cancelled sweep return early while its
	// straggler goroutines drain before the next sweep touches shared
	// state. gpPoll is the bound-once kernel-poll closure handed to long
	// Gilbert–Peierls factorizations.
	sweep  SweepControl
	gpPoll func() error
}

// schedHooks observes the factor and refactor schedulers; used by tests to
// prove that ND blocks and fine-BTF blocks are processed concurrently.
type schedHooks struct {
	blockStart func(blk int, nd bool)
	blockDone  func(blk int, nd bool)
}

func (num *Numeric) hookStart(blk int, nd bool) {
	if num.hooks != nil && num.hooks.blockStart != nil {
		num.hooks.blockStart(blk, nd)
	}
}

func (num *Numeric) hookDone(blk int, nd bool) {
	if num.hooks != nil && num.hooks.blockDone != nil {
		num.hooks.blockDone(blk, nd)
	}
}

// SyncWaitSeconds reports the wall-clock time the last numeric sweep's
// workers spent blocked in point-to-point waits, summed over workers.
func (num *Numeric) SyncWaitSeconds() float64 {
	return float64(num.SyncWaitNs) / 1e9
}

// PivotFallbacks reports how many per-block fresh-pivot fallbacks the
// refresh sweeps (Refactor/RefactorPartial) have taken over this
// Numeric's lifetime — reused pivot sequences defeated by value drift.
func (num *Numeric) PivotFallbacks() int64 { return num.pivotFallbacks.Load() }

// DenseKernelHits reports how many fine-ND kernel executions were routed
// through the dense panel layer across the last numeric sweep, summed
// over the ND blocks (the numeric-side counterpart of
// Symbolic.DenseKernels' static tag count).
func (num *Numeric) DenseKernelHits() int64 {
	total := int64(0)
	for _, ndn := range num.nd {
		if ndn != nil {
			total += ndn.denseHits.Load()
		}
	}
	return total
}

// SupernodeHits reports how many fine-ND leaf-diagonal factorizations or
// refreshes went through the supernodal panel path across the last
// numeric sweep, summed over the ND blocks (the numeric-side counterpart
// of Symbolic.Supernodes' static count).
func (num *Numeric) SupernodeHits() int64 {
	total := int64(0)
	for _, ndn := range num.nd {
		if ndn != nil {
			total += ndn.snHits.Load()
		}
	}
	return total
}

// LastDirtyBlocks reports how many coarse blocks the most recent partial
// refresh (a Refactor that found fewer than half the columns changed, or a
// RefactorPartial) actually reworked; DirtyBlocksTotal is the cumulative
// count across all partial refreshes.
func (num *Numeric) LastDirtyBlocks() int    { return num.lastDirty }
func (num *Numeric) DirtyBlocksTotal() int64 { return num.dirtyTotal }

// Analyze computes Basker's symbolic factorization: coarse BTF, block
// classification, fine orderings and the order of the small blocks. A
// panic in one of its parallel lanes reaches the caller after the lanes
// have joined, re-raised as an error wrapping ErrInternalPanic (PanicError);
// at Threads 1 the same panic unwinds the caller's goroutine as it is.
func Analyze(a *sparse.CSC, opts Options) (*Symbolic, error) {
	if a.M != a.N {
		return nil, fmt.Errorf("core: matrix must be square, got %d×%d", a.M, a.N)
	}
	n := a.N
	sym := &Symbolic{N: n, Opts: opts}
	rec := opts.Trace
	sweep := rec.BeginSweep(trace.PhaseAnalyze)
	defer sweep.End()
	btfStart := rec.Now()

	// ---- Coarse structure (paper §III-A).
	if opts.UseBTF {
		ws := btfWSPool.Get().(*btf.Workspace)
		form, err := btf.ComputeWith(a, opts.UseMWCM, ws)
		btfWSPool.Put(ws)
		if err != nil {
			return nil, fmt.Errorf("core: btf: %w", err)
		}
		sym.RowPerm, sym.ColPerm, sym.BlockPtr = form.RowPerm, form.ColPerm, form.BlockPtr
		sym.BTFPercent = form.PercentInSmallBlocks(opts.bigBlockMin())
	} else {
		sym.RowPerm = sparse.IdentityPerm(n)
		sym.ColPerm = sparse.IdentityPerm(n)
		sym.BlockPtr = []int{0, n}
		sym.BTFPercent = 0
	}
	if rec != nil {
		rec.Record(trace.Event{Start: btfStart, End: rec.Now(),
			Worker: trace.DriverWorker, Block: -1, Kind: trace.KindAnalyzeBTF, Phase: trace.PhaseAnalyze})
	}
	nblocks := sym.NumBlocks()
	sym.kind = make([]blockKind, nblocks)
	sym.ndsym = make([]*ndSym, nblocks)
	sym.estNnz = make([]int, nblocks)
	sym.blockOf = make([]int32, n)
	for blk := 0; blk < nblocks; blk++ {
		for i := sym.BlockPtr[blk]; i < sym.BlockPtr[blk+1]; i++ {
			sym.blockOf[i] = int32(blk)
		}
	}

	// A block is worth the fine-ND machinery only when it holds a
	// significant share of the matrix (the paper's D2 averages 68% of the
	// rows); medium blocks are cheaper as independent fine-BTF work.
	ndThreshold := opts.bigBlockMin()
	if t := n / 4; t > ndThreshold {
		ndThreshold = t
	}

	permStart := rec.Now()
	b := a.Permute(sym.RowPerm, sym.ColPerm)
	if rec != nil {
		rec.Record(trace.Event{Start: permStart, End: rec.Now(),
			Worker: trace.DriverWorker, Block: -1, Kind: trace.KindGather, Phase: trace.PhaseAnalyze})
	}
	rowPerm := make([]int, n)
	colPerm := make([]int, n)

	// ---- Per-block fine analysis, parallel over coarse blocks: every
	// block's ordering work (AMD / matching+ND) reads the shared permuted
	// matrix and writes only its own permutation range and symbolic slots,
	// so independent blocks analyze concurrently across the thread pool.
	errs := make([]error, nblocks)
	for blk := 0; blk < nblocks; blk++ {
		bs := sym.BlockPtr[blk+1] - sym.BlockPtr[blk]
		if bs >= ndThreshold || !opts.UseBTF {
			sym.kind[blk] = blockND
			sym.ndBlocks = append(sym.ndBlocks, blk)
		} else {
			sym.kind[blk] = blockSmall
			sym.smallBlocks = append(sym.smallBlocks, blk)
		}
	}
	// Worker t draws one workspace on its first block and keeps it for all
	// of them; all go back to the pool as soon as the blocks are done.
	wss := make([]*analysisWS, min(opts.threads(), nblocks))
	analyzeBlock := func(blk, t int) {
		if wss[t] == nil {
			wss[t] = analysisWSPool.Get().(*analysisWS)
		}
		ws := wss[t]
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		if sym.kind[blk] == blockND {
			errs[blk] = analyzeND(sym, b, blk, r0, r1, rowPerm, colPerm, opts, ws, t)
			return
		}
		// ---- Fine BTF block (paper §III-B, Algorithm 2): AMD order and
		// fill estimate off one graph of the block.
		t0 := rec.Now()
		sym.estNnz[blk] = ws.Block(b, r0, r1, sym.RowPerm, sym.ColPerm, rowPerm, colPerm)
		if rec != nil {
			rec.Record(trace.Event{Start: t0, End: rec.Now(),
				Worker: int32(t), Block: int32(blk), Kind: trace.KindAnalyzeAMD, Phase: trace.PhaseAnalyze})
		}
	}
	parallelBlocks(nblocks, opts.threads(), analyzeBlock)
	for _, ws := range wss {
		if ws != nil {
			analysisWSPool.Put(ws)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(sym.smallBlocks, func(i, j int) bool {
		return sym.estNnz[sym.smallBlocks[i]] > sym.estNnz[sym.smallBlocks[j]]
	})
	total, size := 0, 0
	for _, blk := range sym.smallBlocks {
		total += sym.estNnz[blk]
	}
	sym.smallRuns = []int{0}
	for k, blk := range sym.smallBlocks {
		if size += sym.estNnz[blk]; size*8*opts.threads() >= total || k == len(sym.smallBlocks)-1 {
			sym.smallRuns, size = append(sym.smallRuns, k+1), 0
		}
	}
	sym.RowPerm, sym.ColPerm = rowPerm, colPerm
	sym.colPos = make([]int32, n)
	for k, j := range colPerm {
		sym.colPos[j] = int32(k)
	}
	planStart := rec.Now()
	sym.plan = newFactorPlan(sym, a)
	if rec != nil {
		rec.Record(trace.Event{Start: planStart, End: rec.Now(),
			Worker: trace.DriverWorker, Block: -1, Kind: trace.KindAnalyzePlan, Phase: trace.PhaseAnalyze})
	}
	return sym, nil
}

// newFactorPlan builds the entry maps every sweep over a matrix with a's
// pattern gathers through: the global permutation map plus per-block
// extraction maps (small blocks and the fine-ND 2D grids). Map construction
// is independent per block and runs across the thread pool.
func newFactorPlan(sym *Symbolic, a *sparse.CSC) *factorPlan {
	nblocks := sym.NumBlocks()
	// The plan is pattern-only — every consumer either aliases the index
	// slices (SharePattern) or gathers through the entry maps — so it is
	// built from a's pattern alone: no value buffer is filled to be dropped.
	pat := &sparse.CSC{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx}
	perm, permMap := pat.PermuteWithMap(sym.RowPerm, sym.ColPerm)
	pl := &factorPlan{
		colptr:   append([]int(nil), a.Colptr...),
		rowidx:   append([]int(nil), a.Rowidx...),
		perm:     perm,
		permMap:  permMap,
		smallPat: make([]*sparse.CSC, nblocks),
		smallSrc: make([][]int, nblocks),
		grids:    make([]*ndGrid, nblocks),
		offPtr:   make([]int32, sym.N+1),
	}
	for c := 0; c < sym.N; c++ {
		r0, p := sym.BlockPtr[sym.blockOf[c]], perm.Colptr[c]
		for p < perm.Colptr[c+1] && perm.Rowidx[p] < r0 {
			p++
		}
		pl.offPtr[c+1] = pl.offPtr[c] + int32(p-perm.Colptr[c])
	}
	parallelBlocks(nblocks, sym.Opts.threads(), func(blk, _ int) {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		switch sym.kind[blk] {
		case blockSmall:
			pl.smallPat[blk], pl.smallSrc[blk] = perm.ExtractBlockWithMap(r0, r1, r0, r1)
		case blockND:
			pl.grids[blk] = buildNDGrid(perm, r0, sym.ndsym[blk])
		}
	})
	return pl
}

// btfWSPool, matchWSPool and analysisWSPool recycle Analyze's workspaces
// across calls (and across the parallel per-block analyses, which draw one
// per worker): reallocating the coarse BTF, bottleneck-matching and
// per-block ordering scratch on every call was a measurable slice of the
// symbolic phase the paper insists must not serialize the pipeline. A
// workspace lives in a pool or in one running Analyze, never in the
// Symbolic that Analyze returns: the retained footprint of an analysis is
// its permutations, estimates and plan only.
var (
	btfWSPool      = sync.Pool{New: func() any { return btf.NewWorkspace() }}
	matchWSPool    = sync.Pool{New: func() any { return matching.NewWorkspace() }}
	analysisWSPool = sync.Pool{New: func() any { return new(analysisWS) }}
)

// analysisWS is one Analyze worker's scratch: the shared per-block front end
// (graph, AMD, elimination tree) plus what only a fine-ND block needs.
type analysisWS struct {
	order.Workspace
	// sub is one tree block's graph, induced from the ND block's graph G
	// when the tree has more than one block.
	sub sparse.SymGraph
	// dp is the pattern of the fully permuted ND block (columns unsorted,
	// no values), which the Algorithm 3 estimates and the supernode
	// detection scan; rowTo is the row relabelling that formed it.
	dp    sparse.CSC
	rowTo []int
}

// analyzeND builds the fine-ND symbolic structure for coarse block blk
// (paper §III-C): local MWCM, nested dissection with one leaf per thread,
// optional per-block AMD, composed into the global permutations. The graph
// of the matched block is built once, in ws, and everything downstream runs
// off it: the dissection, each tree block's AMD (on the induced subgraph),
// and each leaf's elimination tree and column counts, which the Algorithm 3
// estimates and the supernode detection then share. t is the calling
// worker's trace lane.
func analyzeND(sym *Symbolic, b *sparse.CSC, blk, r0, r1 int, rowPerm, colPerm []int, opts Options, ws *analysisWS, t int) error {
	bs := r1 - r0
	rec := opts.Trace
	stageStart := rec.Now()
	stage := func(kind trace.Kind) {
		if rec != nil {
			now := rec.Now()
			rec.Record(trace.Event{Start: stageStart, End: now,
				Worker: int32(t), Block: int32(blk), Kind: kind, Phase: trace.PhaseAnalyze})
			stageStart = now
		}
	}

	// Local matching (Pm2) to concentrate weight on the diagonal and
	// reduce the need to pivot: the one consumer of the block's values.
	var localRow, rowNew []int
	if opts.UseMWCM {
		d := b
		if bs != b.N {
			d = b.ExtractBlock(r0, r1, r0, r1)
		}
		mws := matchWSPool.Get().(*matching.Workspace)
		m, err := matching.BottleneckWith(d, mws)
		matchWSPool.Put(mws)
		if err != nil {
			return fmt.Errorf("core: nd block %d matching: %w", blk, err)
		}
		localRow = m.RowPerm
		rowNew = sparse.InversePerm(localRow)
	}
	stage(trace.KindAnalyzeNDMatch)

	// Nested dissection with one leaf per ND thread.
	ws.G.Build(b, r0, r1, rowNew)
	tree, err := nd.ComputeGraph(&ws.G, opts.ndLeaves())
	if err != nil {
		return fmt.Errorf("core: nd block %d: %w", blk, err)
	}
	stage(trace.KindAnalyzeNDDissect)

	// Per tree block: optional AMD for local fill reduction (the
	// composition keeps the tree's block boundaries), and for leaves the
	// column counts under the final labelling. Tree blocks are independent;
	// at more than one thread each worker draws its own workspace and reads
	// the shared graph.
	permL := append([]int(nil), tree.Perm...)
	leafCounts := make([][]int, tree.NumBlocks())
	nt := min(opts.threads(), tree.NumBlocks())
	parallelBlocks(tree.NumBlocks(), nt, func(nb, w int) {
		b0, b1 := tree.BlockPtr[nb], tree.BlockPtr[nb+1]
		leaf := tree.Height[nb] == 0
		localAMD := opts.LocalAMD && b1-b0 >= 3
		if !localAMD && !leaf {
			return
		}
		lws, lane, t0 := ws, int32(t), rec.Now()
		if nt > 1 {
			lws = analysisWSPool.Get().(*analysisWS)
			defer analysisWSPool.Put(lws)
			lane = trace.NDWorker(blk, w)
		}
		g := &ws.G
		if tree.NumBlocks() > 1 {
			lws.sub.Induce(&ws.G, tree.Perm[b0:b1])
			g = &lws.sub
		}
		var local []int
		if localAMD {
			local = lws.AMD.Order(g)
			for k, v := range local {
				permL[b0+k] = tree.Perm[b0+v]
			}
		}
		if leaf {
			parent := lws.Etree.Symmetric(g, local)
			leafCounts[nb] = append([]int(nil), lws.Etree.ColCounts(g, local, parent)...)
		}
		if rec != nil {
			rec.Record(trace.Event{Start: t0, End: rec.Now(),
				Worker: lane, Block: int32(blk), Kind: trace.KindAnalyzeNDLocalAMD, Phase: trace.PhaseAnalyze})
		}
	})
	stageStart = rec.Now()

	// Compose into the global permutations:
	// global row = BTF ∘ localRow ∘ permL ; global col = BTF ∘ permL.
	for k, v := range permL {
		colPerm[r0+k] = sym.ColPerm[r0+v]
		if localRow != nil {
			v = localRow[v]
		}
		rowPerm[r0+k] = sym.RowPerm[r0+v]
	}
	ns := newNDSym(tree)
	// Algorithm 3: parallel symbolic estimation over the final 2D layout,
	// so the numeric phase can pre-size factor storage.
	dp := ws.permutedPattern(b, r0, r1, localRow, permL)
	ns.est = estimateND(dp, ns, leafCounts, opts.threads())
	// Supernode detection before the dense tags: moderate-density leaf
	// diagonals get elimination-tree panels, and computeDenseTags tags
	// couplings onto supernodal leaves the same way it does dense ones.
	ns.computeSupernodes(dp, leafCounts, opts)
	// Density-adaptive kernel classification: fill-heavy separator kernels
	// are tagged here, once per analysis, for the dense panel layer.
	ns.computeDenseTags(opts)
	sym.ndsym[blk] = ns
	stage(trace.KindAnalyzeNDEstimate)
	return nil
}

// permutedPattern forms, in ws, the pattern of the fully permuted ND block
// D(localRow∘permL, permL) for D = b[r0:r1, r0:r1] (a nil localRow is the
// identity): one pass over the block's columns, rows relabelled on the fly,
// columns left unsorted, no values — every consumer scans whole columns.
// The result aliases ws and is valid until ws analyzes another ND block.
func (ws *analysisWS) permutedPattern(b *sparse.CSC, r0, r1 int, localRow, permL []int) *sparse.CSC {
	bs := r1 - r0
	ws.rowTo = sparse.GrowInts(ws.rowTo, bs)
	for k, v := range permL {
		if localRow != nil {
			v = localRow[v]
		}
		ws.rowTo[v] = k
	}
	dp := &ws.dp
	dp.M, dp.N = bs, bs
	dp.Colptr = sparse.GrowInts(dp.Colptr, bs+1)
	dp.Rowidx = dp.Rowidx[:0]
	for j, v := range permL {
		dp.Colptr[j] = len(dp.Rowidx)
		for p := b.Colptr[r0+v]; p < b.Colptr[r0+v+1]; p++ {
			if i := b.Rowidx[p] - r0; i >= 0 && i < bs {
				dp.Rowidx = append(dp.Rowidx, ws.rowTo[i])
			}
		}
	}
	dp.Colptr[bs] = len(dp.Rowidx)
	return dp
}

// sweepMode selects what one walk of the coarse schedule does to the blocks
// it visits. The three public operations are the three modes of runSweep.
type sweepMode uint8

const (
	// modeFactor runs the pivoting kernels on every block (Factor,
	// FactorInto): new pivot sequences, new factor patterns.
	modeFactor sweepMode = iota
	// modeRefresh recomputes every block's values over its fixed pivots and
	// patterns (Refactor with at least half the columns changed): the
	// all-dirty mask.
	modeRefresh
	// modePartial is modeRefresh under a dirty mask (Refactor below half,
	// RefactorPartial): clean blocks, and clean kernels inside dirty fine-ND
	// blocks, keep their values.
	modePartial
)

// sweepModes holds what differs between the modes outside the kernels: the
// trace phase, the fault-injection sweep id, the watchdog's sweep name and
// the block-error prefix.
var sweepModes = [...]struct {
	phase  trace.Phase
	inject faultinject.Sweep
	name   string
	errTag string
}{
	modeFactor:  {trace.PhaseFactor, faultinject.SweepFactor, "factor", ""},
	modeRefresh: {trace.PhaseRefactor, faultinject.SweepRefactor, "refactor", "refactor "},
	modePartial: {trace.PhasePartial, faultinject.SweepPartial, "partial refactor", "refactor "},
}

// Factor numerically factors a with a prior analysis. All numeric state is
// built fresh and returned only on success, so a failed Factor never leaves
// a partially mutated Numeric behind.
//
// a must have the sparsity pattern sym was analyzed for: the values land
// in permuted and per-block storage by flat gathers through the
// Analyze-time entry maps — no Permute, no ExtractBlock — and runSweep
// walks the blocks in modeFactor. Any other pattern is an error, since an
// entry outside the analyzed blocks would have nowhere to go.
func Factor(a *sparse.CSC, sym *Symbolic) (*Numeric, error) {
	return factorFresh(context.Background(), a, sym, nil)
}

// FactorCtx is Factor bound to a context: a cancellation or deadline fired
// mid-sweep unwinds every worker cooperatively and returns
// ErrCanceled/ErrDeadlineExceeded. With context.Background() it is exactly
// Factor (no monitor runs unless Options.StallTimeout arms the watchdog).
func FactorCtx(ctx context.Context, a *sparse.CSC, sym *Symbolic) (*Numeric, error) {
	return factorFresh(ctx, a, sym, nil)
}

// factorFresh allocates the Numeric of a fresh factorization and sweeps it
// in modeFactor; hooks instruments the scheduler for tests.
func factorFresh(ctx context.Context, a *sparse.CSC, sym *Symbolic, hooks *schedHooks) (_ *Numeric, err error) {
	if a.N != sym.N || a.M != sym.N {
		return nil, fmt.Errorf("core: dimension mismatch with symbolic analysis")
	}
	if !sym.plan.matches(a) {
		return nil, fmt.Errorf("core: Factor requires a matrix with the analyzed sparsity pattern")
	}
	nblocks, nt := sym.NumBlocks(), sym.Opts.threads()
	num := &Numeric{
		Sym:      sym,
		small:    make([]*gp.Factors, nblocks),
		nd:       make([]*ndNum, nblocks),
		sig:      NewEpochSignals(nblocks),
		errs:     make([]error, nblocks),
		took:     make([]atomic.Int32, nblocks),
		held:     make([]int, nt),
		factorWS: make([]*gp.Workspace, nt),
		smallIn:  make([]*sparse.CSC, nblocks),
		hooks:    hooks,
	}
	num.sig.Bind(&num.sweep)
	num.gpPoll = num.sweep.Poll
	defer num.recoverSerial(&err)
	num.Perm = sym.plan.perm.SharePattern()
	if err := num.fullSweep(ctx, modeFactor, a); err != nil {
		return nil, err
	}
	// Every diagonal-block factor is already exact-length (gp.FactorInto's
	// copy-out); the fine-ND couplings grow by appending.
	for _, ndn := range num.nd {
		if ndn != nil {
			ndn.compactCouplings()
		}
	}
	return num, nil
}

// FactorInto runs a fresh numeric factorization (new pivot selection, same
// symbolic analysis) reusing num's storage: permuted values, diagonal-block
// factors, fine-ND grids and pooled workspaces. a must have the sparsity
// pattern num was factored with. On error num's numeric values are
// unspecified and it must not be used for solves until a subsequent
// FactorInto or Refactor succeeds — either re-pivots, because a failed
// fresh sweep leaves factor patterns half-built. Like Refactor, it must not
// run concurrently with solves on this Numeric.
func (num *Numeric) FactorInto(a *sparse.CSC) error {
	return num.FactorIntoCtx(context.Background(), a)
}

// FactorIntoCtx is FactorInto bound to a context (see FactorCtx).
func (num *Numeric) FactorIntoCtx(ctx context.Context, a *sparse.CSC) (err error) {
	if err := num.enter(ctx, a); err != nil {
		return err
	}
	defer num.recoverSerial(&err)
	if !num.Sym.plan.matches(a) {
		return fmt.Errorf("core: FactorInto requires a matrix with the sparsity pattern this numeric was factored with")
	}
	return num.fullSweep(ctx, modeFactor, a)
}

// FactorDirect is the one-shot Analyze+Factor.
func FactorDirect(a *sparse.CSC, opts Options) (*Numeric, error) {
	return FactorDirectCtx(context.Background(), a, opts)
}

// FactorDirectCtx is FactorDirect with cooperative cancellation of the
// numeric sweep (the serial analysis runs to completion regardless; only a
// ctx already expired at entry skips it).
func FactorDirectCtx(ctx context.Context, a *sparse.CSC, opts Options) (*Numeric, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, CancelCause(ctx)
		}
	}
	sym, err := Analyze(a, opts)
	if err != nil {
		return nil, err
	}
	return FactorCtx(ctx, a, sym)
}

// Refactor recomputes numeric values for a same-pattern matrix, reusing the
// symbolic analysis and all diagonal-block pivot sequences — the operation
// the Xyce transient sequence repeats thousands of times. It finds the
// change itself: one flat pass compares the incoming values bit for bit with
// the values the factorization holds, in permuted storage. When fewer than
// half the columns differ, only those columns are written and only the
// blocks (and, inside fine-ND blocks, the kernels) their changes reach are
// refreshed, traced as trace.PhasePartial; a block no change reaches keeps
// its factors bit for bit, so bit-identical values touch no block. Otherwise
// every value is gathered through the plan's entry maps and runSweep runs in
// modeRefresh. Either way the steady state allocates nothing. A block whose
// reused pivot drifts to zero (gp.ErrSingular) falls back to a fresh
// pivoting factorization of that block alone, published into the Numeric
// only once completely built. Bitwise comparison makes a +0 ↔ −0 restamp a
// change and a NaN restamped with the same bits none.
//
// Exclusion contract: Refactor must not run concurrently with any solve or
// other sweep on this Numeric (values are refreshed in place). If Refactor
// returns an error, the numeric values are unspecified: the factorization
// must not be used for solves until a subsequent Refactor or a fresh Factor
// succeeds; its structure remains intact, so retrying is permitted, and the
// next refresh compares nothing and sweeps every block.
func (num *Numeric) Refactor(a *sparse.CSC) error {
	return num.RefactorCtx(context.Background(), a)
}

// RefactorCtx is Refactor bound to a context: a cancellation or deadline
// fired mid-sweep unwinds every worker cooperatively, poisons the numeric
// (recoverable by any subsequent successful refresh) and returns
// ErrCanceled/ErrDeadlineExceeded. With context.Background() it is exactly
// Refactor — no monitor goroutine, no allocation — unless
// Options.StallTimeout arms the stall watchdog.
func (num *Numeric) RefactorCtx(ctx context.Context, a *sparse.CSC) (err error) {
	if err := num.enter(ctx, a); err != nil {
		return err
	}
	defer num.recoverSerial(&err)
	if err := num.Sym.plan.checkPattern(a); err != nil {
		return err
	}
	// After a failed sweep the held values are unspecified (a failed fresh
	// sweep also half-built factor patterns): nothing is compared to them.
	if !num.incPoisoned {
		if cols, partial := num.changedColumns(a); partial {
			num.markChanged(a, cols)
			return num.partialSweep(ctx)
		}
	}
	return num.fullSweep(ctx, modeRefresh, a)
}

// enter is the prologue every sweep entry point on an existing Numeric
// shares: the O(1) argument check, rejection of an already-expired context
// before any numeric work (the factors are untouched, so the numeric is NOT
// poisoned), and the drain that waits out stragglers of a previous
// cancelled/stalled sweep — they may still read permuted storage, own their
// workspaces and consult the dirty stamps — before the caller's gather or
// marking touches anything (fast path: one atomic load).
func (num *Numeric) enter(ctx context.Context, a *sparse.CSC) error {
	if a.N != num.Sym.N || a.M != num.Sym.N {
		return fmt.Errorf("core: dimension mismatch with symbolic analysis")
	}
	if ctx != nil && ctx.Err() != nil {
		return CancelCause(ctx)
	}
	num.sweep.drain()
	return nil
}

// fullSweep gathers every value of a (whose pattern the caller verified)
// into permuted storage and runs the all-dirty sweep in the given mode.
func (num *Numeric) fullSweep(ctx context.Context, mode sweepMode, a *sparse.CSC) error {
	if num.repivot {
		mode = modeFactor
	}
	rec := num.Sym.Opts.Trace
	phase := sweepModes[mode].phase
	defer num.endTrace(rec.BeginSweep(phase))
	gatherStart := rec.Now()
	sparse.PermuteInto(num.Perm, a, num.Sym.plan.permMap)
	if rec != nil {
		rec.Record(trace.Event{Start: gatherStart, End: rec.Now(),
			Worker: trace.DriverWorker, Block: -1, Kind: trace.KindGather, Phase: phase})
	}
	return num.runSweep(ctx, mode, nil)
}

// endTrace closes a traced sweep's measurement. A sweep that returned early
// (cancel, deadline or stall) while its workers are still in flight records
// no Summary and reads no ring entry: the join broke before every slot was
// waited on, so nothing orders the stragglers' Record calls before End. Once
// the stragglers are gone, their last inflight decrement orders them.
func (num *Numeric) endTrace(sw trace.Sweep) {
	if num.sweep.Canceled() && num.sweep.inflight.Load() > 0 {
		return
	}
	sw.End()
}

// runSweep is the one numeric scheduler: a single walk of the coarse
// dependency structure (the fine-BTF blocks of the paper's Algorithm 2 plus
// one Algorithm 4 team per fine-ND block) that serves fresh factorization,
// full refresh and partial refresh.
//
//	mode         kernel per block                       mask       on gp.ErrSingular
//	modeFactor   gp.FactorInto / pivoting ND walk       all dirty  sweep fails
//	modeRefresh  gp.Refactor / fixed-pivot ND walk      all dirty  re-pivot that block (freshKernel)
//	modePartial  gp.RefactorSelective / masked ND walk  dirty      re-pivot that block (freshKernel)
//
// The ND walk's diagonal kernels refresh through the same two gp entries,
// whichever layout — column, supernodal or dense-built — their fresh
// factorization chose.
//
// dirty is the mask (nil = every block): clean blocks are never visited and
// their completion slots are pre-armed. The caller has already drained the
// previous sweep's stragglers (enter) and placed the new values — a flat
// gather for the full modes, per-column marking for modePartial.
//
// Lifecycle, the same in every mode:
//
//  1. reset: completion fabric, error slots, fail flag, sync counters;
//     BeginSweep re-arms the cancel control and, when the context can fire
//     or Options.StallTimeout is set, a SweepMonitor starts.
//  2. launch: min(Threads, runs) dealing workers take the fine-BTF blocks
//     from one cursor over the runs of Symbolic.smallBlocks, largest
//     estimate first, and every dirty fine-ND block gets a lane (its
//     cooperative team forms inside ndNum.sweep, through Lanes), all
//     concurrently and all detached lanes of the one launcher (goLane,
//     lanes.go). Where the paper's Algorithm 2 balances a static partition
//     by estimated flops, the cursor balances by what the blocks actually
//     cost: they carry about 1.4 % of a circuit refresh's
//     multiply-subtracts, so the estimate bought nothing. A panicking lane
//     is recorded through notePanic — a team member's panic too, re-raised
//     on its block's lane — and its release hook force-sets the slots it
//     owns: the rest of a dealer's run and every run left on the cursor
//     (releaseRun), a fine-ND lane's block (releaseND). With Threads == 1
//     the dirty blocks run in index order on the caller's goroutine
//     instead, under the entry point's recoverSerial.
//  3. join: the driver waits slot by slot. Only external cancellation
//     (context, deadline, stall verdict) breaks a wait; the driver then
//     returns at once and the stragglers — a wedged worker cannot be
//     pre-empted — are waited out by the next entry point's drain.
//  4. collect, first match wins: monitor verdict (typed ErrCanceled /
//     ErrDeadlineExceeded / *StallError), recorded panic
//     (ErrInternalPanic), cancellation marker, first per-block error.
//     Nothing below touches block storage unless every slot was set.
//  5. on success: aggregate the ND teams' sync counters; if factors were
//     built or replaced, recount |L+U| and rebuild the solves' pivot-order
//     layout.
//  6. poison: the numeric is poisoned exactly when the sweep returns an
//     error — its values are unspecified — and the next successful sweep
//     clears it: an incremental call on a poisoned numeric runs a full
//     refresh instead, and after a failed modeFactor sweep, which also
//     leaves factor patterns half-built, the next full sweep re-pivots.
func (num *Numeric) runSweep(ctx context.Context, mode sweepMode, dirty *incState) (err error) {
	sym := num.Sym
	nblocks := sym.NumBlocks()
	num.sig.Reset()
	clear(num.errs)
	num.failed.Store(false)
	num.SyncWaits, num.SyncWaitNs = 0, 0
	armed := MonitorArmed(ctx, sym.Opts.StallTimeout)
	num.sweep.BeginSweep(armed)
	var mon *SweepMonitor
	if armed {
		mon = StartSweepMonitor(MonitorSpec{
			Ctx: ctx, Stall: sym.Opts.StallTimeout, Sweep: sweepModes[mode].name,
			Ctl: &num.sweep, Pending: num.pendingCoarse,
		})
	}
	done := false
	defer func() {
		if merr := mon.Stop(); merr != nil {
			err = merr
		}
		// Also reached by a panic unwinding the serial sweep (done is false).
		bad := !done || err != nil
		num.incPoisoned = bad
		if mode == modeFactor {
			num.repivot = bad
		}
	}()
	if dirty != nil {
		for blk := 0; blk < nblocks; blk++ {
			if !dirty.has(blk) {
				num.sig.Set(blk)
			}
		}
	}
	if sym.Opts.threads() == 1 {
		for blk := 0; blk < nblocks; blk++ {
			if dirty.has(blk) {
				num.sweepBlock(blk, 0, mode, dirty)
			}
		}
	} else {
		num.cursor.Store(0)
		num.mode, num.dirty = mode, dirty
		for t := range min(sym.Opts.threads(), len(sym.smallRuns)-1) {
			num.goLane(t, (*Numeric).dealLane, (*Numeric).releaseRun)
		}
		// The fine-ND blocks, the sweep's critical path, start last: Go's
		// scheduler runs the goroutine started last next on this thread.
		for _, blk := range sym.ndBlocks {
			if dirty.has(blk) {
				num.goLane(blk, (*Numeric).ndLane, (*Numeric).releaseND)
			}
		}
	}
	for blk := 0; blk < nblocks; blk++ {
		if !num.sig.Wait(blk) {
			break
		}
	}
	if perr := num.takePanicErr(); perr != nil {
		return perr
	}
	if num.sweep.Canceled() {
		// The deferred monitor stop replaces this marker with the typed error.
		return errSweepAborted
	}
	for _, err := range num.errs {
		if err != nil {
			return err
		}
	}
	for _, blk := range sym.ndBlocks {
		if dirty.has(blk) {
			num.SyncWaits += num.nd[blk].SyncWaits
			num.SyncWaitNs += num.nd[blk].SyncWaitNs
		}
	}
	if mode == modeFactor || num.refit.Swap(false) {
		num.nnzLU = num.countNnzLU()
		num.buildSolveLayout()
	}
	done = true
	return nil
}

// ndLane is the detached lane of fine-ND block blk, which is also its
// fault-injection worker id.
func (num *Numeric) ndLane(blk int) {
	num.Sym.Opts.Inject.WorkerPanic(sweepModes[num.mode].inject, blk)
	num.sweepBlock(blk, 0, num.mode, num.dirty)
}

// releaseND is ndLane's panic release: it sets the completion slot of its
// block. EpochSignals.Set is an idempotent epoch store, so a slot already
// signalled is unaffected — the driver's point-to-point join still waits
// for true quiescence of every sibling instead of deadlocking or returning
// while workers race on shared per-worker state.
func (num *Numeric) releaseND(blk int) { num.sig.Set(blk) }

// dealLane is dealing worker t: it takes runs of small blocks from the
// cursor until they run out and sweeps the dirty blocks on worker slot t,
// recording itself in took while it holds one. Its fault-injection worker id
// is NumBlocks()+t, consulted when it takes its first dirty block, so a
// worker that takes none touches nothing of the sweep.
func (num *Numeric) dealLane(t int) {
	blks, first := num.Sym.smallBlocks, true
	for k, end := num.takeRun(t); k < end; k, end = num.takeRun(t) {
		for ; k < end; k++ {
			blk := blks[k]
			if !num.dirty.has(blk) {
				continue
			}
			if first {
				first = false
				num.Sym.Opts.Inject.WorkerPanic(sweepModes[num.mode].inject, num.Sym.NumBlocks()+t)
			}
			num.took[blk].Store(int32(t + 1))
			num.sweepBlock(blk, t, num.mode, num.dirty)
			num.took[blk].Store(0)
		}
	}
}

// releaseRun is dealLane's panic release: it sets the completion slot of
// every block in the run worker t holds (the blocks it finished are set
// already, which Set leaves as they are) and of every run left on the
// cursor, clearing their took marks.
func (num *Numeric) releaseRun(t int) {
	blks := num.Sym.smallBlocks
	for k, end := num.run(num.held[t]); k < end; k, end = num.takeRun(t) {
		for ; k < end; k++ {
			num.took[blks[k]].Store(0)
			num.sig.Set(blks[k])
		}
	}
}

// takeRun hands dealing worker t the next run of Symbolic.smallBlocks as the
// positions [k, end), recording it in held[t]; k == end once every run has
// been taken.
func (num *Numeric) takeRun(t int) (k, end int) {
	num.held[t] = int(num.cursor.Add(1))
	return num.run(num.held[t])
}

// run returns the positions [k, end) of the run the cursor handed out as
// its r-th (runs count from 1), or k == end past the last.
func (num *Numeric) run(r int) (k, end int) {
	if runs := num.Sym.smallRuns; r < len(runs) {
		return runs[r-1], runs[r]
	}
	return 0, 0
}

// sweepBlock runs coarse block blk's kernel for the sweep's mode (worker
// index t selects the pooled fine-BTF workspace) and signals its completion
// slot. Once a block has failed or the sweep is cancelled, remaining blocks
// skip their work but still signal, so the join quiesces; a block whose
// kernel returns into a cancelled sweep records its outcome and signals,
// and nothing more.
// A refresh whose reused pivot sequence is defeated by the new values
// (gp.ErrSingular) falls back to freshKernel for this block alone; permuted
// storage always holds the complete current block, so the re-pivoting sees
// every value even when the refresh was partial.
func (num *Numeric) sweepBlock(blk, t int, mode sweepMode, dirty *incState) {
	sym := num.Sym
	if num.failed.Load() || num.sweep.Canceled() {
		num.sig.Set(blk)
		return
	}
	m := &sweepModes[mode]
	inject := sym.Opts.Inject
	nd := sym.kind[blk] == blockND
	num.hookStart(blk, nd)
	var sub *sparse.CSC
	if !nd {
		sub = num.smallIn[blk]
		if sub == nil {
			sub = num.Sym.plan.smallPat[blk].SharePattern()
			num.smallIn[blk] = sub
		}
		if mode != modePartial {
			// The marking phase of a partial sweep already re-gathered every
			// changed column.
			sparse.ExtractBlockInto(sub, num.Perm, num.Sym.plan.smallSrc[blk])
		}
	}
	if inject.KernelNaN(m.inject, blk) {
		if nd {
			poisonColumnRange(num.Perm, sym.BlockPtr[blk], sym.BlockPtr[blk+1])
		} else if sub.Nnz() > 0 {
			sub.Values[0] = nan()
		}
	}
	rec := sym.Opts.Trace
	var start int64
	if rec != nil && !nd {
		start = rec.Now()
	}
	var err error
	switch {
	case inject.PivotFail(m.inject, blk):
		err = gp.ErrSingular
	case mode == modeFactor:
		err = num.freshKernel(blk, t, sub, false)
	default:
		err = num.refreshKernel(blk, t, sub, dirty)
	}
	if mode != modeFactor && errors.Is(err, gp.ErrSingular) {
		// A second armed PivotFail also takes down the fallback, exercising
		// the poisoned-numeric path.
		num.pivotFallbacks.Add(1)
		if !inject.PivotFail(m.inject, blk) {
			err = num.freshKernel(blk, t, sub, true)
		}
	}
	if err != nil {
		kind := "small"
		if nd {
			kind = "nd"
		}
		num.errs[blk] = fmt.Errorf("core: %s%s block %d: %w", m.errTag, kind, blk, err)
		num.failed.Store(true)
	}
	// A cancelled sweep has already returned to its caller: a straggler
	// only releases its slot and leaves hooks and fault points to the next
	// sweep.
	if num.sweep.Canceled() {
		num.sig.Set(blk)
		return
	}
	if rec != nil && !nd {
		rec.Record(trace.Event{Start: start, End: rec.Now(),
			Worker: int32(t), Block: int32(blk), Kind: trace.KindSmallBlock, Phase: m.phase})
	}
	num.hookDone(blk, nd)
	inject.StallPoint(m.inject, blk)
	num.sig.Set(blk)
}

// freshKernel runs the pivoting factorization of block blk from its gathered
// input (sub for a small block, permuted storage for a fine-ND one). In a
// fresh sweep the block's storage is recycled in place; as the pivot-drift
// fallback of a refresh (replace) the new factors are built aside and
// published only once complete, so a failed fallback leaves the structure
// intact.
func (num *Numeric) freshKernel(blk, t int, sub *sparse.CSC, replace bool) error {
	sym := num.Sym
	if sym.kind[blk] == blockSmall {
		f := num.small[blk]
		if f == nil || replace {
			f = &gp.Factors{}
		}
		if err := gp.FactorInto(f, sub, nil, sym.estNnz[blk], num.sweepOpts().gpOptions(), num.workerWS(t)); err != nil {
			return err
		}
		num.small[blk] = f
	} else {
		ndn, opts := num.nd[blk], num.sweepOpts()
		if ndn == nil || replace {
			ndn = newNDNum(blk, sym.ndsym[blk], num.Sym.plan.grids[blk], opts)
		}
		if err := ndn.sweep(num.Perm, opts, modeFactor, nil); err != nil {
			return err
		}
		num.nd[blk] = ndn
	}
	if replace {
		num.refit.Store(true)
	}
	return nil
}

// refreshKernel recomputes block blk's values over its fixed pivots and
// patterns: everything under a nil mask, otherwise the dependency closure
// of the dirty columns (small block) or the dirty kernels of the 2D
// hierarchy (fine-ND block).
func (num *Numeric) refreshKernel(blk, t int, sub *sparse.CSC, dirty *incState) error {
	sym := num.Sym
	if sym.kind[blk] == blockSmall {
		if dirty == nil {
			return num.small[blk].Refactor(sub, num.workerWS(t))
		}
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		return num.small[blk].RefactorSelective(sub, num.workerWS(t),
			dirty.colStamp[r0:r1], dirty.epoch, dirty.rerun[r0:r1])
	}
	if dirty == nil {
		return num.nd[blk].sweep(num.Perm, num.sweepOpts(), modeRefresh, nil)
	}
	st := dirty.nd[blk]
	num.nd[blk].computeChanged(st, dirty.epoch)
	return num.nd[blk].sweep(num.Perm, num.sweepOpts(), modePartial, st)
}

// workerWS returns fine-BTF worker t's pooled Gilbert–Peierls workspace
// (lazily built; gp calls grow it to each block's dimension on demand).
func (num *Numeric) workerWS(t int) *gp.Workspace {
	ws := num.factorWS[t]
	if ws == nil {
		ws = gp.NewWorkspace(64)
		num.factorWS[t] = ws
	}
	return ws
}

// NnzLU reports |L+U|: all factored entries plus coarse off-block entries
// used in the solve (the paper's Table I statistic). The count is cached
// at factorization time.
func (num *Numeric) NnzLU() int { return num.nnzLU }

func (num *Numeric) countNnzLU() int {
	sym := num.Sym
	total := 0
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		switch sym.kind[blk] {
		case blockSmall:
			total += num.small[blk].NnzLU()
		case blockND:
			total += num.nd[blk].nnzLU()
		}
	}
	// In upper BTF form every off-block entry lies above its diagonal
	// block, and those are what the plan's offPtr numbers.
	return total + int(sym.plan.offPtr[sym.N])
}

// FillDensity reports |L+U| / |A| using the cached count.
func (num *Numeric) FillDensity(a *sparse.CSC) float64 {
	return float64(num.NnzLU()) / float64(a.Nnz())
}

// pendingCoarse reports the first coarse block still pending and the
// fine-BTF worker that holds it, for the stall watchdog's diagnostics: the
// caller's goroutine (0) in a serial sweep, the dealing worker that took it
// in a parallel one, -1 for a fine-ND block (a cooperative team) or a small
// block no worker holds. Safe to call from the monitor goroutine mid-sweep:
// the fabric's epoch is stable between Reset calls, the slots and took are
// atomic.
func (num *Numeric) pendingCoarse() (int, int) {
	blk := num.sig.FirstPending()
	switch {
	case blk < 0 || num.Sym.kind[blk] == blockND:
		return blk, -1
	case num.Sym.Opts.threads() == 1:
		return blk, 0
	}
	return blk, int(num.took[blk].Load()) - 1
}
