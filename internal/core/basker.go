package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/etree"
	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/order/amd"
	"repro/internal/order/btf"
	"repro/internal/order/matching"
	"repro/internal/order/nd"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Symbolic is Basker's reusable analysis: the coarse BTF structure, the
// fine-BTF thread partition, and the fine-ND trees with all orderings
// composed into a single pair of global permutations.
type Symbolic struct {
	N        int
	Opts     Options
	RowPerm  []int // new-to-old, all orderings composed
	ColPerm  []int
	BlockPtr []int // coarse BTF boundaries in permuted space

	// kind[b]: blockSmall or blockND per coarse block.
	kind []blockKind
	// ndsym[b] is non-nil for fine-ND blocks.
	ndsym []*ndSym
	// partition[t] lists the small coarse blocks assigned to thread t
	// (flop-balanced, Algorithm 2 line 5).
	partition [][]int
	// estNnz[b] is the factor size estimate for small blocks.
	estNnz []int
	// blockOf[i] is the coarse block containing permuted row/column i,
	// built once at analysis time (NnzLU and the trisolve dependency
	// builder both need it; rebuilding it per call was measurable).
	blockOf []int
	// scratchLen is the pivot-application scratch length a reentrant solve
	// must provide: the largest fine-ND tree-block dimension or fine-BTF
	// block dimension across all coarse blocks.
	scratchLen int
	// plan caches the entry maps from the analyzed matrix's pattern into the
	// permuted matrix and every diagonal block, so Factor is a pure value
	// gather instead of a Permute+ExtractBlock per call. Read-only after
	// Analyze; shared by all factorizations of this analysis.
	plan *factorPlan

	BTFPercent float64
}

// factorPlan is the Analyze-time gather state of the fresh-factorization
// fast path: a matrix with the analyzed sparsity pattern is permuted and
// split into diagonal blocks by flat value gathers through these maps (the
// fine-ND 2D grid maps live on each block's ndSym). A matrix with a
// different pattern falls back to the slow Permute/ExtractBlock path.
type factorPlan struct {
	// colptr/rowidx are the analyzed pattern, for verification.
	colptr, rowidx []int
	// perm is the permuted pattern (its values are the analyzed matrix's);
	// factorizations share its index slices and gather into private values.
	perm *sparse.CSC
	// permMap sends entry t of perm to its source entry in the caller's CSC.
	permMap []int
	// smallPat/smallSrc cache each small diagonal block's pattern and its
	// entry map into the permuted matrix.
	smallPat []*sparse.CSC
	smallSrc [][]int
}

// matches verifies a's sparsity structure against the analyzed pattern.
func (pl *factorPlan) matches(a *sparse.CSC) bool {
	return sparse.SamePattern(pl.colptr, pl.rowidx, a)
}

// PatternMatches reports whether a has exactly the sparsity pattern this
// analysis was computed for (the pattern every planned fast path requires).
func (s *Symbolic) PatternMatches(a *sparse.CSC) bool {
	return s.plan != nil && s.plan.matches(a)
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
func (s *Symbolic) BlockOf(i int) int { return s.blockOf[i] }

// SolveScratchLen reports the scratch length required by SolveBlock and
// SolveInto: the largest diagonal sub-block dimension over all coarse
// blocks (fine-BTF block size or fine-ND tree-block size).
func (s *Symbolic) SolveScratchLen() int { return s.scratchLen }

// NumNDBlocks reports how many coarse blocks use the fine-ND engine.
func (s *Symbolic) NumNDBlocks() int {
	n := 0
	for _, k := range s.kind {
		if k == blockND {
			n++
		}
	}
	return n
}

// Numeric holds a completed factorization.
type Numeric struct {
	Sym   *Symbolic
	Perm  *sparse.CSC // fully permuted matrix (off-block entries for solve)
	small []*gp.Factors
	nd    []*ndNum
	// nnzLU caches |L+U|, computed once at the end of each (re)factorization
	// so Stats and FillDensity never recount it.
	nnzLU int
	// SyncWaits aggregates contended point-to-point waits (ablation metric);
	// SyncWaitNs aggregates the wall-clock nanoseconds those blocked waits
	// (and barrier waits) cost across the last numeric sweep — the
	// sync-overhead side of the paper's 2.3%-vs-11% comparison, measured
	// even when tracing is off because the fabrics time only their
	// contended slow paths.
	SyncWaits  int64
	SyncWaitNs int64
	// pivotFallbacks counts per-block fresh-pivot fallbacks taken by
	// refresh sweeps (pivot drift defeating a reused sequence); lastDirty
	// and dirtyTotal track the per-call and cumulative dirty coarse-block
	// counts of the incremental (RefactorPartial/RefactorAuto) path.
	pivotFallbacks atomic.Int64
	lastDirty      int
	dirtyTotal     int64

	// btfBusy[t] is thread t's summed compute time over its fine-BTF
	// blocks; ndSim accumulates the simulated makespans of the ND engines.
	btfBusy []float64
	ndSim   float64

	// planned reports that this numeric was built through the Analyze-time
	// gather plan (its Perm and block patterns are the analyzed ones).
	planned bool
	// factorSig is the coarse per-block completion fabric of the unified
	// fresh-factorization scheduler; factorErrs records per-block failures
	// and factorFailed flags the sweep so not-yet-started blocks skip their
	// work (every slot is still signalled, so the join always quiesces).
	// All are reset, never reallocated, across FactorInto calls.
	factorSig    *EpochSignals
	factorErrs   []error
	factorFailed atomic.Bool
	// factorWS[t] is fine-BTF worker t's pooled Gilbert–Peierls workspace,
	// shared by the fresh-factorization and refactorization sweeps (which
	// are mutually exclusive by contract); lazily built, reused forever.
	factorWS []*gp.Workspace
	// smallIn[blk] is the pooled gather target for small block blk on the
	// planned fast path (pattern shared with the plan, values private).
	smallIn []*sparse.CSC

	// pipe is the numeric-scatter refactorization pipeline, built on the
	// first Refactor call and reused for every subsequent same-pattern
	// refresh (entry maps, cached diagonal blocks, pooled workspaces, the
	// resettable completion fabric).
	pipe *refactorPipeline
	// inc is the change-tracking state of the incremental refactorization
	// fast path (RefactorPartial/RefactorAuto), built on first use.
	inc *incState
	// incPoisoned remembers that the last refresh sweep failed, leaving the
	// resident values unspecified: the next incremental call must run a
	// full refresh instead of trusting its change set. Cleared by any
	// successful refresh.
	incPoisoned bool
	// hooks instruments the factor/refactor schedulers for tests (nil in
	// production).
	hooks *schedHooks

	// panicMu/panicErr/panics are the panic-isolation state: every worker
	// goroutine of every parallel sweep recovers panics, records the first
	// one here, and force-releases the completion slots it owns so sibling
	// workers drain. The driver surfaces the record as ErrInternalPanic and
	// poisons the numeric.
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

// refactorPipeline holds everything a steady-state Refactor needs so the
// hot loop is a pure value gather plus per-block numeric refreshes:
// no Permute, no ExtractBlock, no allocation.
type refactorPipeline struct {
	// permMap sends entry t of the permuted matrix to its source entry in
	// the caller's CSC (built by sparse.PermuteWithMap).
	permMap []int
	// smallSub/smallSrc cache each small diagonal block and its entry map
	// into the permuted matrix. (Per-worker Gilbert–Peierls workspaces are
	// the Numeric's factorWS pool, shared with the fresh sweep.)
	smallSub []*sparse.CSC
	smallSrc [][]int
	// sig has one completion slot per coarse block; the driver joins the
	// sweep point-to-point on this fabric (the refactor-side reuse of the
	// Signals design) and it is reset, never reallocated, between sweeps.
	sig *EpochSignals
	// errs[blk] records a failed block refresh; reset each sweep.
	errs []error
	// changed reports that a fallback replaced a block's factors this
	// sweep, so |L+U| must be recounted.
	changed atomic.Bool
	// unowned lists coarse blocks no scheduler worker covers (empty in
	// practice: every small block is partitioned and every ND block is
	// launched); the parallel sweep refreshes them inline before starting
	// workers so the point-to-point join can never deadlock.
	unowned []int
	// colptr/rowidx are a private copy of the analyzed pattern, verified
	// against every caller matrix before its values are gathered: a
	// same-size different-pattern matrix must fail loudly, never scatter
	// into the wrong positions. The check is a flat integer compare —
	// cheaper than the value gather it guards.
	colptr []int
	rowidx []int
}

// checkPattern verifies a's sparsity structure against the analyzed one.
func (pipe *refactorPipeline) checkPattern(a *sparse.CSC) error {
	if a.Nnz() != len(pipe.rowidx) {
		return fmt.Errorf("core: refactor pattern mismatch: %d entries, analyzed %d", a.Nnz(), len(pipe.rowidx))
	}
	for j, c := range pipe.colptr {
		if a.Colptr[j] != c {
			return fmt.Errorf("core: refactor pattern mismatch in column %d", j-1)
		}
	}
	for t, r := range pipe.rowidx {
		if a.Rowidx[t] != r {
			return fmt.Errorf("core: refactor pattern mismatch at entry %d", t)
		}
	}
	return nil
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

// SimulatedSeconds reports the numeric-factorization makespan of the static
// schedule on an ideal machine with Sym.Opts.Threads cores: the maximum
// per-thread fine-BTF compute time plus the dependency-tree makespan of
// every fine-ND block. This is the hardware-substitution timing model used
// when the host has fewer physical cores than the experiment sweeps
// (DESIGN.md); matrix permutation/extraction overhead is excluded for all
// solvers alike.
func (num *Numeric) SimulatedSeconds() float64 {
	total := num.ndSim
	max := 0.0
	for _, b := range num.btfBusy {
		if b > max {
			max = b
		}
	}
	return total + max
}

// SyncWaitSeconds reports the wall-clock time the last numeric sweep's
// workers spent blocked on the synchronization fabric (point-to-point
// waits plus barrier waits), summed over workers.
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

// LastDirtyBlocks reports how many coarse blocks the most recent
// incremental refresh (RefactorPartial/RefactorAuto) actually reworked;
// DirtyBlocksTotal is the cumulative count across all incremental calls.
func (num *Numeric) LastDirtyBlocks() int    { return num.lastDirty }
func (num *Numeric) DirtyBlocksTotal() int64 { return num.dirtyTotal }

// Analyze computes Basker's symbolic factorization: coarse BTF, block
// classification, fine orderings and the thread partition.
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
	sym.blockOf = make([]int, n)
	for blk := 0; blk < nblocks; blk++ {
		for i := sym.BlockPtr[blk]; i < sym.BlockPtr[blk+1]; i++ {
			sym.blockOf[i] = blk
		}
	}

	// A block is worth the fine-ND machinery only when it holds a
	// significant share of the matrix (the paper's D2 averages 68% of the
	// rows); medium blocks are cheaper as independent fine-BTF work.
	ndThreshold := opts.bigBlockMin()
	if t := n / 4; t > ndThreshold {
		ndThreshold = t
	}

	b := a.Permute(sym.RowPerm, sym.ColPerm)
	rowPerm := make([]int, n)
	colPerm := make([]int, n)
	copy(rowPerm, sym.RowPerm)
	copy(colPerm, sym.ColPerm)

	// ---- Per-block fine analysis, parallel over coarse blocks: every
	// block's ordering work (AMD / matching+ND) reads the shared permuted
	// matrix and writes only its own permutation range and symbolic slots,
	// so independent blocks analyze concurrently across the thread pool.
	type smallStat struct {
		blk   int
		flops float64
	}
	flops := make([]float64, nblocks) // <0: fine-ND block
	errs := make([]error, nblocks)
	for blk := 0; blk < nblocks; blk++ {
		bs := sym.BlockPtr[blk+1] - sym.BlockPtr[blk]
		if bs >= ndThreshold || !opts.UseBTF {
			sym.kind[blk] = blockND
		} else {
			sym.kind[blk] = blockSmall
		}
	}
	analyzeBlock := func(blk, t int) {
		var t0 int64
		if rec != nil {
			t0 = rec.Now()
			kind := trace.KindAnalyzeAMD
			if sym.kind[blk] == blockND {
				kind = trace.KindAnalyzeND
			}
			defer func() {
				rec.Record(trace.Event{Start: t0, End: rec.Now(),
					Worker: int32(t), Block: int32(blk), Kind: kind, Phase: trace.PhaseAnalyze})
			}()
		}
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		bs := r1 - r0
		if sym.kind[blk] == blockND {
			flops[blk] = -1
			errs[blk] = analyzeND(sym, b, blk, r0, r1, rowPerm, colPerm, opts)
			return
		}
		// ---- Fine BTF block (paper §III-B, Algorithm 2): AMD order.
		if bs > 1 {
			sub := b.ExtractBlock(r0, r1, r0, r1)
			local := amd.Order(sub)
			for k := 0; k < bs; k++ {
				rowPerm[r0+k] = sym.RowPerm[r0+local[k]]
				colPerm[r0+k] = sym.ColPerm[r0+local[k]]
			}
			ordered := sub.Permute(local, local)
			parent := etree.Symmetric(ordered)
			counts := etree.ColCounts(ordered, parent)
			est := 0
			for _, c := range counts {
				est += c
			}
			sym.estNnz[blk] = 2 * est
			flops[blk] = etree.FlopEstimate(counts)
		} else {
			sym.estNnz[blk] = 1
			flops[blk] = 1
		}
	}
	parallelBlocks(nblocks, opts.threads(), analyzeBlock)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var smalls []smallStat
	for blk := 0; blk < nblocks; blk++ {
		if sym.kind[blk] == blockSmall {
			smalls = append(smalls, smallStat{blk, flops[blk]})
		}
	}
	sym.RowPerm, sym.ColPerm = rowPerm, colPerm

	// ---- Partition small blocks among threads by estimated flops
	// (longest-processing-time greedy, Algorithm 2 line 5).
	nt := opts.threads()
	sym.partition = make([][]int, nt)
	sort.Slice(smalls, func(i, j int) bool { return smalls[i].flops > smalls[j].flops })
	loads := make([]float64, nt)
	for _, st := range smalls {
		best := 0
		for t := 1; t < nt; t++ {
			if loads[t] < loads[best] {
				best = t
			}
		}
		sym.partition[best] = append(sym.partition[best], st.blk)
		loads[best] += st.flops
	}
	for blk := 0; blk < nblocks; blk++ {
		d := 0
		if ns := sym.ndsym[blk]; ns != nil {
			d = ns.maxDim
		} else {
			d = sym.BlockPtr[blk+1] - sym.BlockPtr[blk]
		}
		if d > sym.scratchLen {
			sym.scratchLen = d
		}
	}
	sym.buildFactorPlan(a)
	return sym, nil
}

// buildFactorPlan caches, once per analysis, the entry maps every fresh
// factorization of a same-pattern matrix gathers through: the global
// permutation map plus per-block extraction maps (small blocks here, the
// fine-ND 2D grids on their ndSym). Map construction is independent per
// block and runs across the thread pool.
func (sym *Symbolic) buildFactorPlan(a *sparse.CSC) {
	rec := sym.Opts.Trace
	planStart := rec.Now()
	nblocks := sym.NumBlocks()
	perm, permMap := a.PermuteWithMap(sym.RowPerm, sym.ColPerm)
	pl := &factorPlan{
		colptr:   append([]int(nil), a.Colptr...),
		rowidx:   append([]int(nil), a.Rowidx...),
		perm:     perm,
		permMap:  permMap,
		smallPat: make([]*sparse.CSC, nblocks),
		smallSrc: make([][]int, nblocks),
	}
	parallelBlocks(nblocks, sym.Opts.threads(), func(blk, _ int) {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		switch sym.kind[blk] {
		case blockSmall:
			pl.smallPat[blk], pl.smallSrc[blk] = perm.ExtractBlockWithMap(r0, r1, r0, r1)
			pl.smallPat[blk].Values = nil
		case blockND:
			sym.ndsym[blk].grid = buildNDGrid(perm, r0, sym.ndsym[blk])
			for _, row := range sym.ndsym[blk].grid.pat {
				for _, pat := range row {
					if pat != nil {
						pat.Values = nil
					}
				}
			}
		}
	})
	// The plan is pattern-only: every consumer either aliases the index
	// slices (SharePattern) or gathers through the entry maps, so the value
	// buffers filled during construction are dead weight — drop them rather
	// than retain ~nnz float64s per cached analysis.
	perm.Values = nil
	sym.plan = pl
	if rec != nil {
		rec.Record(trace.Event{Start: planStart, End: rec.Now(),
			Worker: trace.DriverWorker, Block: -1, Kind: trace.KindAnalyzePlan, Phase: trace.PhaseAnalyze})
	}
}

// btfWSPool and matchWSPool recycle the serial front end's workspaces
// across Analyze calls (and across the parallel per-block analyses, which
// draw one matching workspace per in-flight block): the coarse BTF and
// bottleneck-matching scratch used to be reallocated on every call, a
// measurable slice of the symbolic phase the paper insists must not
// serialize the pipeline.
var (
	btfWSPool   = sync.Pool{New: func() any { return btf.NewWorkspace() }}
	matchWSPool = sync.Pool{New: func() any { return matching.NewWorkspace() }}
)

// parallelBlocks runs fn(blk, t) for every block, fanning independent
// blocks out over up to nt worker goroutines (inline when nt <= 1); t is
// the worker index executing the block, for trace attribution.
func parallelBlocks(nblocks, nt int, fn func(blk, t int)) {
	if nt > nblocks {
		nt = nblocks
	}
	if nt <= 1 {
		for blk := 0; blk < nblocks; blk++ {
			fn(blk, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < nt; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for {
				blk := int(next.Add(1)) - 1
				if blk >= nblocks {
					return
				}
				fn(blk, t)
			}
		}(t)
	}
	wg.Wait()
}

// analyzeND builds the fine-ND symbolic structure for coarse block blk
// (paper §III-C): local MWCM, nested dissection with one leaf per thread,
// optional per-block AMD, composed into the global permutations.
func analyzeND(sym *Symbolic, b *sparse.CSC, blk, r0, r1 int, rowPerm, colPerm []int, opts Options) error {
	bs := r1 - r0
	d := b.ExtractBlock(r0, r1, r0, r1)

	// Local matching (Pm2) to concentrate weight on the diagonal and
	// reduce the need to pivot.
	localRow := sparse.IdentityPerm(bs)
	if opts.UseMWCM {
		ws := matchWSPool.Get().(*matching.Workspace)
		m, err := matching.BottleneckWith(d, ws)
		matchWSPool.Put(ws)
		if err != nil {
			return fmt.Errorf("core: nd block %d matching: %w", blk, err)
		}
		localRow = m.RowPerm
		d = d.Permute(localRow, nil)
	}

	// Nested dissection with one leaf per ND thread.
	tree, err := nd.Compute(d, opts.ndLeaves())
	if err != nil {
		return fmt.Errorf("core: nd block %d: %w", blk, err)
	}
	rowL := append([]int(nil), tree.Perm...)
	colL := append([]int(nil), tree.Perm...)

	// Optional AMD inside each tree diagonal block for local fill
	// reduction; the composition keeps the tree's block boundaries.
	if opts.LocalAMD {
		d2 := d.Permute(tree.Perm, tree.Perm)
		for nb := 0; nb < tree.NumBlocks(); nb++ {
			b0, b1 := tree.BlockPtr[nb], tree.BlockPtr[nb+1]
			if b1-b0 < 3 {
				continue
			}
			sub := d2.ExtractBlock(b0, b1, b0, b1)
			local := amd.Order(sub)
			for k := 0; k < b1-b0; k++ {
				rowL[b0+k] = tree.Perm[b0+local[k]]
				colL[b0+k] = tree.Perm[b0+local[k]]
			}
		}
	}

	// Compose into the global permutations:
	// global row = BTF ∘ localRow ∘ rowL ; global col = BTF ∘ colL.
	for k := 0; k < bs; k++ {
		rowPerm[r0+k] = sym.RowPerm[r0+localRow[rowL[k]]]
		colPerm[r0+k] = sym.ColPerm[r0+colL[k]]
	}
	ns := newNDSym(tree)
	// Algorithm 3: parallel symbolic estimation over the final 2D layout,
	// so the numeric phase can pre-size factor storage.
	dp := d.Permute(rowL, colL)
	ns.est = estimateND(dp, ns)
	// Supernode detection before the dense tags: moderate-density leaf
	// diagonals get elimination-tree panels, and computeDenseTags tags
	// couplings onto supernodal leaves the same way it does dense ones.
	ns.computeSupernodes(dp, opts)
	// Density-adaptive kernel classification: fill-heavy separator kernels
	// are tagged here, once per analysis, for the dense panel layer.
	ns.computeDenseTags(opts)
	sym.ndsym[blk] = ns
	return nil
}

// Factor numerically factors a with a prior analysis. All numeric state is
// built fresh and returned only on success, so a failed Factor never leaves
// a partially mutated Numeric behind.
//
// When a's sparsity pattern matches the analyzed one (the overwhelmingly
// common case), the values are gathered straight into permuted and
// per-block storage through the Analyze-time entry maps — no Permute, no
// ExtractBlock — and every coarse block is swept by one unified scheduler:
// independent fine-ND blocks factor concurrently with each other and with
// the flop-balanced fine-BTF partition, joined point-to-point on a
// per-block completion fabric instead of a barrier. A different pattern
// falls back to per-call permutation and extraction.
func Factor(a *sparse.CSC, sym *Symbolic) (*Numeric, error) {
	return factorImpl(context.Background(), a, sym, nil, nil)
}

// FactorCtx is Factor bound to a context: a cancellation or deadline fired
// mid-sweep unwinds every worker cooperatively and returns
// ErrCanceled/ErrDeadlineExceeded. With context.Background() it is exactly
// Factor (no monitor runs unless Options.StallTimeout arms the watchdog).
func FactorCtx(ctx context.Context, a *sparse.CSC, sym *Symbolic) (*Numeric, error) {
	return factorImpl(ctx, a, sym, nil, nil)
}

// FactorInto runs a fresh numeric factorization (new pivot selection, same
// symbolic analysis) reusing num's storage: permuted values, diagonal-block
// factors, fine-ND grids and pooled workspaces. a must have the analyzed
// sparsity pattern. On error num's numeric values are unspecified and it
// must not be used for solves until a subsequent FactorInto or Refactor
// succeeds; its structure remains intact, so retrying is permitted. Like
// Refactor, it must not run concurrently with solves on this Numeric.
func (num *Numeric) FactorInto(a *sparse.CSC) error {
	_, err := factorImpl(context.Background(), a, num.Sym, num, nil)
	return err
}

// FactorIntoCtx is FactorInto bound to a context (see FactorCtx).
func (num *Numeric) FactorIntoCtx(ctx context.Context, a *sparse.CSC) error {
	_, err := factorImpl(ctx, a, num.Sym, num, nil)
	return err
}

func factorImpl(ctx context.Context, a *sparse.CSC, sym *Symbolic, num *Numeric, hooks *schedHooks) (out *Numeric, err error) {
	if a.N != sym.N || a.M != sym.N {
		return nil, fmt.Errorf("core: dimension mismatch with symbolic analysis")
	}
	// Serial-path panic isolation: parallel workers recover below, but the
	// single-threaded sweep and the gather run on the caller's goroutine.
	defer func() {
		if r := recover(); r != nil {
			if num != nil {
				num.notePanic(r)
				num.incPoisoned = true
				err = num.takePanicErr()
			} else {
				err = panicError(r)
			}
			out = nil
		}
	}()
	nblocks := sym.NumBlocks()
	nt := sym.Opts.threads()
	rec := sym.Opts.Trace
	sweep := rec.BeginSweep(trace.PhaseFactor)
	defer sweep.End()
	fresh := num == nil
	armed := MonitorArmed(ctx, sym.Opts.StallTimeout)
	if fresh {
		num = &Numeric{
			Sym:        sym,
			small:      make([]*gp.Factors, nblocks),
			nd:         make([]*ndNum, nblocks),
			btfBusy:    make([]float64, nt),
			factorSig:  NewEpochSignals(nblocks),
			factorErrs: make([]error, nblocks),
			factorWS:   make([]*gp.Workspace, nt),
			smallIn:    make([]*sparse.CSC, nblocks),
		}
		num.factorSig.Bind(&num.sweep)
		num.gpPoll = num.sweep.Poll
		num.hooks = hooks
	} else {
		// Stragglers of a previous cancelled/stalled sweep still own their
		// workspaces and storage; wait them out before any state is reset.
		num.sweep.drain()
		num.factorSig.Reset()
		for i := range num.factorErrs {
			num.factorErrs[i] = nil
		}
		for t := range num.btfBusy {
			num.btfBusy[t] = 0
		}
		num.SyncWaits, num.SyncWaitNs, num.ndSim = 0, 0, 0
	}
	num.factorFailed.Store(false)
	num.sweep.BeginSweep(armed)
	var mon *SweepMonitor
	if armed {
		mon = StartSweepMonitor(MonitorSpec{
			Ctx: ctx, Stall: sym.Opts.StallTimeout, Sweep: "factor",
			Ctl:     &num.sweep,
			Pending: func() (int, int) { return num.pendingCoarse(num.factorSig) },
		})
	}
	defer func() {
		if merr := mon.Stop(); merr != nil {
			// The typed cancellation outranks per-block errors: cancelled
			// workers record only the aborted-sweep marker.
			num.incPoisoned = true
			err = merr
			out = nil
		}
	}()

	// ---- Value gather (or slow-path permutation) into num.Perm. A reused
	// numeric must itself have been built on the planned layout — its Perm,
	// block patterns and gather maps all describe the analyzed pattern — so
	// the guard checks the numeric's provenance, not just the new matrix.
	if fresh {
		num.planned = sym.plan != nil && sym.plan.matches(a)
	} else if !num.planned || sym.plan == nil || !sym.plan.matches(a) {
		return nil, fmt.Errorf("core: FactorInto requires a numeric built on the analyzed sparsity pattern and a matrix matching it")
	}
	gatherStart := rec.Now()
	if num.planned {
		if num.Perm == nil {
			num.Perm = sym.plan.perm.SharePattern()
		}
		sparse.PermuteInto(num.Perm, a, sym.plan.permMap)
	} else {
		num.Perm = a.Permute(sym.RowPerm, sym.ColPerm)
	}
	if rec != nil {
		rec.Record(trace.Event{Start: gatherStart, End: rec.Now(),
			Worker: trace.DriverWorker, Block: -1, Kind: trace.KindGather, Phase: trace.PhaseFactor})
	}

	// ---- Unified numeric sweep: every fine-ND block gets its own
	// cooperative parallel region and the fine-BTF partition runs on its
	// flop-balanced worker sweeps, all concurrently; the driver joins
	// point-to-point on the per-block completion fabric.
	if nt == 1 {
		for blk := 0; blk < nblocks; blk++ {
			num.factorBlock(blk, 0)
		}
	} else {
		inject := sym.Opts.Inject
		for blk := 0; blk < nblocks; blk++ {
			if sym.kind[blk] != blockND {
				continue
			}
			num.sweep.addWorker()
			go func(blk int) {
				defer num.sweep.workerDone()
				// A panicking launcher owns exactly its block's slot; Set is
				// an idempotent epoch store, so force-releasing it lets the
				// point-to-point join quiesce instead of deadlocking.
				defer num.recoverRelease(num.factorSig, []int{blk})
				inject.WorkerPanic(faultinject.SweepFactor, blk)
				num.factorBlock(blk, 0)
			}(blk)
		}
		for t := 0; t < nt; t++ {
			if len(sym.partition[t]) == 0 {
				continue
			}
			num.sweep.addWorker()
			go func(t int) {
				defer num.sweep.workerDone()
				defer num.recoverRelease(num.factorSig, sym.partition[t])
				inject.WorkerPanic(faultinject.SweepFactor, nblocks+t)
				for _, blk := range sym.partition[t] {
					num.factorBlock(blk, t)
				}
			}(t)
		}
		for blk := 0; blk < nblocks; blk++ {
			if !num.factorSig.Wait(blk) {
				// Only external cancellation unblocks this join with false
				// (coarse fabrics are never failed by workers): return
				// early with the monitor's typed error; stragglers drain at
				// the next sweep entry.
				break
			}
		}
	}
	if perr := num.takePanicErr(); perr != nil {
		num.incPoisoned = true
		return nil, perr
	}
	if num.sweep.Canceled() {
		// Cancelled mid-sweep: stragglers may still be writing block
		// storage, so no post-processing may touch it. The deferred monitor
		// stop replaces this marker with the typed cancellation error.
		num.incPoisoned = true
		return nil, errSweepAborted
	}
	for _, err := range num.factorErrs {
		if err != nil {
			num.incPoisoned = true
			return nil, err
		}
	}
	for blk := 0; blk < nblocks; blk++ {
		if sym.kind[blk] == blockND {
			num.SyncWaits += num.nd[blk].SyncWaits
			num.SyncWaitNs += num.nd[blk].SyncWaitNs
			num.ndSim += num.nd[blk].simSeconds()
		}
	}
	num.nnzLU = num.countNnzLU()
	if fresh {
		num.compactStorage()
	}
	num.incPoisoned = false
	return num, nil
}

// factorBlock freshly factors one coarse block (worker index t selects the
// pooled fine-BTF workspace and timing slot) and signals its completion
// slot. Block storage is reused when present (the FactorInto path) and
// allocated on first use.
func (num *Numeric) factorBlock(blk, t int) {
	sym := num.Sym
	if num.factorFailed.Load() || num.sweep.Canceled() {
		// Another block already failed, or the sweep was cancelled: skip the
		// work, signal the slot so the point-to-point join still quiesces
		// every worker.
		num.factorSig.Set(blk)
		return
	}
	r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
	inject := sym.Opts.Inject
	switch sym.kind[blk] {
	case blockSmall:
		num.hookStart(blk, false)
		var sub *sparse.CSC
		if num.planned {
			sub = num.smallIn[blk]
			if sub == nil {
				sub = sym.plan.smallPat[blk].SharePattern()
				num.smallIn[blk] = sub
			}
			sparse.ExtractBlockInto(sub, num.Perm, sym.plan.smallSrc[blk])
		} else {
			sub = num.Perm.ExtractBlock(r0, r1, r0, r1)
		}
		if inject.KernelNaN(faultinject.SweepFactor, blk) && sub.Nnz() > 0 {
			sub.Values[0] = nan()
		}
		ws := num.workerWS(t)
		if num.small[blk] == nil {
			num.small[blk] = &gp.Factors{}
		}
		t0 := time.Now()
		var err error
		if inject.PivotFail(faultinject.SweepFactor, blk) {
			err = gp.ErrSingular
		} else {
			err = gp.FactorInto(num.small[blk], sub, sym.estNnz[blk], num.gpOpts(), ws)
		}
		d := time.Since(t0)
		num.btfBusy[t] += d.Seconds()
		if rec := sym.Opts.Trace; rec != nil {
			end := rec.Now()
			rec.Record(trace.Event{Start: end - d.Nanoseconds(), End: end,
				Worker: int32(t), Block: int32(blk), Kind: trace.KindSmallBlock, Phase: trace.PhaseFactor})
		}
		if err != nil {
			num.factorErrs[blk] = fmt.Errorf("core: small block %d: %w", blk, err)
			num.factorFailed.Store(true)
		}
		num.hookDone(blk, false)
		inject.StallPoint(faultinject.SweepFactor, blk)
		num.factorSig.Set(blk)
	case blockND:
		num.hookStart(blk, true)
		var grid *ndGrid
		if num.planned {
			grid = sym.ndsym[blk].grid
		}
		if inject.KernelNaN(faultinject.SweepFactor, blk) {
			poisonColumnRange(num.Perm, r0, r1)
		}
		var ndn *ndNum
		var err error
		if inject.PivotFail(faultinject.SweepFactor, blk) {
			err = gp.ErrSingular
		} else {
			ndn, err = factorND(num.Perm, blk, r0, sym.ndsym[blk], num.sweepOpts(), grid, num.nd[blk])
		}
		if err != nil {
			num.factorErrs[blk] = fmt.Errorf("core: nd block %d: %w", blk, err)
			num.factorFailed.Store(true)
		} else {
			num.nd[blk] = ndn
		}
		num.hookDone(blk, true)
		inject.StallPoint(faultinject.SweepFactor, blk)
		num.factorSig.Set(blk)
	}
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

// compactStorage clips every factor's storage to its exact length after a
// fresh factorization, releasing the slack the 2× symbolic nnz estimates
// retain (pooled FactorInto reuse deliberately keeps the slack instead).
func (num *Numeric) compactStorage() {
	for _, f := range num.small {
		if f != nil {
			f.Compact()
		}
	}
	for _, ndn := range num.nd {
		if ndn != nil {
			ndn.compactStorage()
		}
	}
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
// the Xyce transient sequence repeats thousands of times.
//
// The first call builds the numeric-scatter pipeline (entry maps from the
// caller's CSC into the permuted storage and every diagonal block, pooled
// per-worker workspaces, a resettable completion fabric); it is published
// into the Numeric only once fully built. Every subsequent call is a pure
// value gather plus per-block numeric refreshes — zero allocations in
// steady state — with all coarse blocks swept by one unified scheduler, so
// fine-ND blocks refactor concurrently with the fine-BTF partition. A small
// block whose reused pivot drifts to zero (gp.ErrSingular) falls back to a
// fresh pivoting factorization of that block alone; fine-ND blocks fall
// back to a fresh parallel factorization of that block. Replacement factors
// are published into the Numeric only after they are completely built.
//
// Exclusion contract: Refactor must not run concurrently with any solve or
// other Refactor on this Numeric (values are refreshed in place). If
// Refactor returns an error, the numeric values are unspecified: the
// factorization must not be used for solves until a subsequent Refactor or
// a fresh Factor succeeds; its structure remains intact, so retrying is
// permitted.
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
	sym := num.Sym
	if a.N != sym.N || a.M != sym.N {
		return fmt.Errorf("core: dimension mismatch with symbolic analysis")
	}
	// A context already expired at entry rejects before any numeric work:
	// the factors are untouched, so the numeric is NOT poisoned.
	if ctx != nil && ctx.Err() != nil {
		return CancelCause(ctx)
	}
	// Serial-path panic isolation (parallel workers recover in
	// refactorParallel); a recovered panic poisons the numeric.
	defer func() {
		if r := recover(); r != nil {
			num.notePanic(r)
			num.incPoisoned = true
			err = num.takePanicErr()
		}
	}()
	if num.pipe == nil {
		pipe, err := num.buildPipeline(a)
		if err != nil {
			return err
		}
		num.pipe = pipe
	}
	pipe := num.pipe
	if err := pipe.checkPattern(a); err != nil {
		return err
	}
	// Stragglers of a previous cancelled/stalled sweep still read permuted
	// storage and own their workspaces; wait them out before the gather.
	num.sweep.drain()
	rec := sym.Opts.Trace
	sweep := rec.BeginSweep(trace.PhaseRefactor)
	defer sweep.End()
	// Value gather: the caller's CSC lands directly in permuted storage.
	gatherStart := rec.Now()
	sparse.PermuteInto(num.Perm, a, pipe.permMap)
	if rec != nil {
		rec.Record(trace.Event{Start: gatherStart, End: rec.Now(),
			Worker: trace.DriverWorker, Block: -1, Kind: trace.KindGather, Phase: trace.PhaseRefactor})
	}
	for i := range pipe.errs {
		pipe.errs[i] = nil
	}
	for t := range num.btfBusy {
		num.btfBusy[t] = 0
	}
	num.SyncWaits = 0
	num.SyncWaitNs = 0
	num.ndSim = 0
	pipe.sig.Reset()
	armed := MonitorArmed(ctx, sym.Opts.StallTimeout)
	num.sweep.BeginSweep(armed)
	var mon *SweepMonitor
	if armed {
		mon = StartSweepMonitor(MonitorSpec{
			Ctx: ctx, Stall: sym.Opts.StallTimeout, Sweep: "refactor",
			Ctl:     &num.sweep,
			Pending: func() (int, int) { return num.pendingCoarse(pipe.sig) },
		})
	}
	defer func() {
		if merr := mon.Stop(); merr != nil {
			num.incPoisoned = true
			err = merr
		}
	}()
	nt := sym.Opts.threads()
	if nt == 1 {
		for blk := 0; blk < sym.NumBlocks(); blk++ {
			num.refactorBlock(blk, 0)
		}
	} else {
		num.refactorParallel(nt)
	}
	if perr := num.takePanicErr(); perr != nil {
		num.incPoisoned = true
		return perr
	}
	if num.sweep.Canceled() {
		// Cancelled mid-sweep: stragglers may still be refreshing blocks,
		// so no post-processing may touch them. The deferred monitor stop
		// replaces this marker with the typed cancellation error.
		num.incPoisoned = true
		return errSweepAborted
	}
	for _, err := range pipe.errs {
		if err != nil {
			num.incPoisoned = true
			return err
		}
	}
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		if sym.kind[blk] == blockND {
			num.SyncWaits += num.nd[blk].SyncWaits
			num.SyncWaitNs += num.nd[blk].SyncWaitNs
			num.ndSim += num.nd[blk].simSeconds()
		}
	}
	if pipe.changed.Load() {
		num.nnzLU = num.countNnzLU()
		pipe.changed.Store(false)
	}
	num.incPoisoned = false
	return nil
}

// buildPipeline constructs the refactorization pipeline from the first
// same-pattern matrix, verifying that its pattern matches the factored one.
// The pipeline is returned fully built (the caller publishes it with one
// assignment), so a failed build leaves the Numeric untouched. A numeric
// built through the Analyze-time gather plan shares the plan's entry maps
// and block patterns instead of rebuilding them.
func (num *Numeric) buildPipeline(a *sparse.CSC) (*refactorPipeline, error) {
	sym := num.Sym
	nblocks := sym.NumBlocks()
	pipe := &refactorPipeline{
		smallSub: make([]*sparse.CSC, nblocks),
		smallSrc: make([][]int, nblocks),
		sig:      NewEpochSignals(nblocks),
		errs:     make([]error, nblocks),
	}
	pipe.sig.Bind(&num.sweep)
	if num.planned && sym.plan.matches(a) {
		pipe.permMap = sym.plan.permMap
		pipe.colptr = sym.plan.colptr
		pipe.rowidx = sym.plan.rowidx
	} else {
		b, permMap := a.PermuteWithMap(sym.RowPerm, sym.ColPerm)
		if b.Nnz() != num.Perm.Nnz() {
			return nil, fmt.Errorf("core: refactor pattern mismatch: %d entries, analyzed %d", b.Nnz(), num.Perm.Nnz())
		}
		for j := 0; j <= sym.N; j++ {
			if b.Colptr[j] != num.Perm.Colptr[j] {
				return nil, fmt.Errorf("core: refactor pattern mismatch in column %d", j-1)
			}
		}
		for t, r := range b.Rowidx {
			if r != num.Perm.Rowidx[t] {
				return nil, fmt.Errorf("core: refactor pattern mismatch at entry %d", t)
			}
		}
		pipe.permMap = permMap
		pipe.colptr = append([]int(nil), a.Colptr...)
		pipe.rowidx = append([]int(nil), a.Rowidx...)
	}
	for blk := 0; blk < nblocks; blk++ {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		switch sym.kind[blk] {
		case blockSmall:
			if num.planned {
				// Reuse the pooled gather block of the factor fast path (its
				// values are scratch between sweeps either way).
				sub := num.smallIn[blk]
				if sub == nil {
					sub = sym.plan.smallPat[blk].SharePattern()
					num.smallIn[blk] = sub
				}
				pipe.smallSub[blk] = sub
				pipe.smallSrc[blk] = sym.plan.smallSrc[blk]
			} else {
				sub, src := num.Perm.ExtractBlockWithMap(r0, r1, r0, r1)
				pipe.smallSub[blk] = sub
				pipe.smallSrc[blk] = src
			}
		case blockND:
			num.nd[blk].ensureRefactorState(num.Perm, r0)
		}
	}
	nt := sym.Opts.threads()
	owned := make([]bool, nblocks)
	for blk := 0; blk < nblocks; blk++ {
		if sym.kind[blk] == blockND {
			owned[blk] = true
		}
	}
	for t := 0; t < nt; t++ {
		for _, blk := range sym.partition[t] {
			owned[blk] = true
		}
	}
	for blk, l := range owned {
		if !l {
			pipe.unowned = append(pipe.unowned, blk)
		}
	}
	return pipe, nil
}

// refactorParallel is the unified refactor scheduler: every fine-ND block
// gets its own cooperative parallel region and the fine-BTF partition runs
// on its flop-balanced worker sweeps (Algorithm 2), all concurrently. The
// driver joins the sweep point-to-point on the per-block completion fabric
// rather than with a barrier, so independent ND blocks overlap both each
// other and the small-block sweeps.
func (num *Numeric) refactorParallel(nt int) {
	sym := num.Sym
	pipe := num.pipe
	// Blocks no worker owns (none in practice) are refreshed inline before
	// any worker starts, so the join below cannot deadlock and worker 0's
	// workspace is never shared with a live goroutine.
	for _, blk := range pipe.unowned {
		num.refactorBlock(blk, 0)
	}
	inject := sym.Opts.Inject
	nblocks := sym.NumBlocks()
	for blk := 0; blk < nblocks; blk++ {
		if sym.kind[blk] != blockND {
			continue
		}
		num.sweep.addWorker()
		go func(blk int) {
			defer num.sweep.workerDone()
			// Force-release the owned slot on panic (Set is idempotent), so
			// the driver's point-to-point join quiesces every sibling.
			defer num.recoverRelease(pipe.sig, []int{blk})
			inject.WorkerPanic(faultinject.SweepRefactor, blk)
			num.refactorBlock(blk, 0)
		}(blk)
	}
	for t := 0; t < nt; t++ {
		if len(sym.partition[t]) == 0 {
			continue
		}
		num.sweep.addWorker()
		go func(t int) {
			defer num.sweep.workerDone()
			defer num.recoverRelease(pipe.sig, sym.partition[t])
			inject.WorkerPanic(faultinject.SweepRefactor, nblocks+t)
			for _, blk := range sym.partition[t] {
				num.refactorBlock(blk, t)
			}
		}(t)
	}
	for blk := 0; blk < nblocks; blk++ {
		if !pipe.sig.Wait(blk) {
			// Only external cancellation unblocks this join with false:
			// return early with the monitor's typed error; stragglers drain
			// at the next sweep entry.
			break
		}
	}
}

// refactorBlock refreshes one coarse block in place (worker index t selects
// the pooled fine-BTF workspace and timing slot) and signals its completion
// slot. A reused pivot sequence defeated by the new values (gp.ErrSingular)
// triggers a per-block fallback to a fresh pivoting factorization; the
// replacement is published only after it is fully built, and the sweep
// carries on with the remaining blocks.
func (num *Numeric) refactorBlock(blk, t int) {
	sym := num.Sym
	pipe := num.pipe
	if num.sweep.Canceled() {
		pipe.sig.Set(blk)
		return
	}
	inject := sym.Opts.Inject
	switch sym.kind[blk] {
	case blockSmall:
		num.hookStart(blk, false)
		sub := pipe.smallSub[blk]
		sparse.ExtractBlockInto(sub, num.Perm, pipe.smallSrc[blk])
		if inject.KernelNaN(faultinject.SweepRefactor, blk) && sub.Nnz() > 0 {
			sub.Values[0] = nan()
		}
		t0 := time.Now()
		var err error
		if inject.PivotFail(faultinject.SweepRefactor, blk) {
			err = gp.ErrSingular
		} else {
			err = num.small[blk].Refactor(sub, num.workerWS(t))
		}
		if err != nil && errors.Is(err, gp.ErrSingular) {
			// Pivot drift: re-pivot this block alone. A second armed
			// PivotFail also takes down the fallback, exercising the
			// poisoned-numeric path.
			num.pivotFallbacks.Add(1)
			if inject.PivotFail(faultinject.SweepRefactor, blk) {
				err = gp.ErrSingular
			} else {
				var f *gp.Factors
				f, err = gp.Factor(sub, sym.estNnz[blk], num.gpOpts(), num.workerWS(t))
				if err == nil {
					num.small[blk] = f
					pipe.changed.Store(true)
				}
			}
		}
		d := time.Since(t0)
		num.btfBusy[t] += d.Seconds()
		if rec := sym.Opts.Trace; rec != nil {
			end := rec.Now()
			rec.Record(trace.Event{Start: end - d.Nanoseconds(), End: end,
				Worker: int32(t), Block: int32(blk), Kind: trace.KindSmallBlock, Phase: trace.PhaseRefactor})
		}
		if err != nil {
			pipe.errs[blk] = fmt.Errorf("core: refactor small block %d: %w", blk, err)
		}
		num.hookDone(blk, false)
		inject.StallPoint(faultinject.SweepRefactor, blk)
		pipe.sig.Set(blk)
	case blockND:
		num.hookStart(blk, true)
		r0 := sym.BlockPtr[blk]
		if inject.KernelNaN(faultinject.SweepRefactor, blk) {
			poisonColumnRange(num.Perm, r0, sym.BlockPtr[blk+1])
		}
		var err error
		if inject.PivotFail(faultinject.SweepRefactor, blk) {
			err = gp.ErrSingular
		} else {
			err = num.nd[blk].refactorInPlace(num.Perm, r0)
		}
		if err != nil && errors.Is(err, gp.ErrSingular) {
			// Pivot drift inside the 2D hierarchy: rebuild this coarse
			// block with a fresh parallel factorization (new pivots),
			// published only once completely built.
			num.pivotFallbacks.Add(1)
			if inject.PivotFail(faultinject.SweepRefactor, blk) {
				err = gp.ErrSingular
			} else {
				var grid *ndGrid
				if num.planned {
					grid = sym.ndsym[blk].grid
				}
				var fresh *ndNum
				fresh, err = factorND(num.Perm, blk, r0, sym.ndsym[blk], num.sweepOpts(), grid, nil)
				if err == nil {
					fresh.ensureRefactorState(num.Perm, r0)
					num.nd[blk] = fresh
					num.remapBlockDst(blk)
					pipe.changed.Store(true)
				}
			}
		}
		if err != nil {
			pipe.errs[blk] = fmt.Errorf("core: refactor nd block %d: %w", blk, err)
		}
		num.hookDone(blk, true)
		inject.StallPoint(faultinject.SweepRefactor, blk)
		pipe.sig.Set(blk)
	}
}

// Solve solves A x = rhs in place. It allocates its scratch; concurrent
// and allocation-free solves go through the internal/trisolve subsystem,
// which feeds caller-owned workspaces to SolveInto.
func (num *Numeric) Solve(rhs []float64) {
	n := num.Sym.N
	num.SolveInto(rhs, make([]float64, n), make([]float64, num.Sym.SolveScratchLen()))
}

// SolveInto solves A x = rhs in place using caller-provided scratch: y must
// have length n, scratch at least Sym.SolveScratchLen(). It performs no
// allocation and is safe for concurrent use on one Numeric (each caller
// brings its own y and scratch), as long as no Refactor runs concurrently.
func (num *Numeric) SolveInto(rhs, y, scratch []float64) {
	sym := num.Sym
	n := sym.N
	for k := 0; k < n; k++ {
		y[k] = rhs[sym.RowPerm[k]]
	}
	// Coarse block back-substitution, last block first (upper BTF).
	for blk := sym.NumBlocks() - 1; blk >= 0; blk-- {
		num.SolveBlock(blk, y, scratch)
		num.OffBlockUpdate(blk, y)
	}
	for k := 0; k < n; k++ {
		rhs[sym.ColPerm[k]] = y[k]
	}
}

// SolveBlock solves coarse diagonal block blk against the permuted vector
// y (full length n; only y[r0:r1] is touched). scratch needs at least
// Sym.SolveScratchLen() elements.
func (num *Numeric) SolveBlock(blk int, y, scratch []float64) {
	sym := num.Sym
	r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
	switch sym.kind[blk] {
	case blockSmall:
		num.small[blk].SolveWith(y[r0:r1], scratch)
	case blockND:
		num.nd[blk].ndSolve(y[r0:r1], scratch)
	}
}

// SolvePanel runs the coarse BTF back-substitution over a row-interleaved
// panel: y[i] holds permuted row i of all gp.PanelLanes right-hand sides
// (already in row-permuted order), so every entry of the diagonal-block
// factors, the fine-ND couplings and the off-block columns is loaded once
// and applied to eight contiguous lanes. scratch needs at least
// Sym.SolveScratchLen() rows. Per lane the operation sequence is the serial
// sweep's of SolveInto.
func (num *Numeric) SolvePanel(y, scratch []gp.PanelRow) {
	sym, perm := num.Sym, num.Perm
	for blk := sym.NumBlocks() - 1; blk >= 0; blk-- {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		switch sym.kind[blk] {
		case blockSmall:
			num.small[blk].SolvePanelWith(y[r0:r1], scratch)
		case blockND:
			num.nd[blk].ndSolvePanel(y[r0:r1], scratch)
		}
		// Off-block couplings: the rows above the diagonal block lead each
		// (sorted) column of the permuted matrix.
		for c := r0; c < r1; c++ {
			p0, p1 := perm.Colptr[c], perm.Colptr[c+1]
			pEnd := p0
			for pEnd < p1 && perm.Rowidx[pEnd] < r0 {
				pEnd++
			}
			if x := &y[c]; pEnd > p0 && !x.IsZero() {
				gp.PanelAxpy(y, perm.Rowidx[p0:pEnd], perm.Values[p0:pEnd], x)
			}
		}
	}
}

// OffBlockUpdate subtracts block blk's solution from earlier rows of y
// (entries above the diagonal block in its columns) — the coupling step of
// the coarse BTF back-substitution.
func (num *Numeric) OffBlockUpdate(blk int, y []float64) {
	sym := num.Sym
	r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
	for c := r0; c < r1; c++ {
		xc := y[c]
		if xc == 0 {
			continue
		}
		for p := num.Perm.Colptr[c]; p < num.Perm.Colptr[c+1]; p++ {
			i := num.Perm.Rowidx[p]
			if i >= r0 {
				break
			}
			y[i] -= num.Perm.Values[p] * xc
		}
	}
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
	for j := 0; j < sym.N; j++ {
		bj := sym.blockOf[j]
		for p := num.Perm.Colptr[j]; p < num.Perm.Colptr[j+1]; p++ {
			if sym.blockOf[num.Perm.Rowidx[p]] != bj {
				total++
			}
		}
	}
	return total
}

// FillDensity reports |L+U| / |A| using the cached count.
func (num *Numeric) FillDensity(a *sparse.CSC) float64 {
	return float64(num.NnzLU()) / float64(a.Nnz())
}

// pendingCoarse reports the first coarse block still pending on sig and the
// worker lane that owns it, for the stall watchdog's diagnostics. Safe to
// call from the monitor goroutine mid-sweep: the fabric's epoch is stable
// between Reset calls and the slots are atomic.
func (num *Numeric) pendingCoarse(sig *EpochSignals) (int, int) {
	blk := sig.FirstPending()
	if blk < 0 {
		return -1, -1
	}
	return blk, num.laneOf(blk)
}

// laneOf maps a coarse block to the fine-BTF worker lane that owns it, or
// -1 for fine-ND blocks (factored by a cooperative team, not a single lane).
func (num *Numeric) laneOf(blk int) int {
	sym := num.Sym
	if sym.kind[blk] == blockND {
		return -1
	}
	for t, blks := range sym.partition {
		for _, b := range blks {
			if b == blk {
				return t
			}
		}
	}
	return -1
}
