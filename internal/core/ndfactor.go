package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/faultinject"
	"repro/internal/gp"
	"repro/internal/order/nd"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// ndSym is the symbolic structure of one fine-ND block (the paper's D2):
// the dependency tree of Figure 3(b) plus the thread mapping.
type ndSym struct {
	tree *nd.Tree
	nb   int // number of tree nodes (2p-1)
	p    int // leaves / cooperating threads

	subLo     []int   // subtree(K) spans block ids [subLo[K], K]
	ancestors [][]int // ancestors[J]: path from parent(J) to root
	owner     []int   // owning thread (leaf rank) of each node
	leafLo    []int   // first leaf rank in subtree(K)
	leafHi    []int   // last leaf rank in subtree(K)
	height    []int
	maxH      int
	// maxDim is the largest tree-block dimension: the pivot-application
	// scratch length of the block solves.
	maxDim int

	// est holds the Algorithm 3 nonzero estimates (may be nil when the
	// symbolic phase was skipped, e.g. in unit tests of the numeric layer).
	est *ndEstimates
	// dense[i*nb+j] tags kernel (i, j) for the dense panel layer: its
	// estimated density reached Options.DenseKernelThreshold at Analyze
	// time. nil when nothing is tagged (including NoDenseKernels and the
	// est-free unit-test path).
	dense []bool
	// snodes[b], when non-nil, is the supernode partition (xsup boundaries)
	// of leaf diagonal b, detected from its column elimination tree at
	// Analyze time: the block factors through gp.FactorSupernodalInto and
	// refreshes through gp.RefactorSupernodal. Only leaf diagonals that the
	// dense-tag gate did not claim are candidates. nil when nothing merged
	// (including Options.NoSupernodes and the est-free unit-test path).
	snodes [][]int
	// grid caches the 2D input-block patterns and their entry maps into the
	// globally permuted matrix, built once at Analyze time so every numeric
	// factorization gathers block values instead of re-extracting them.
	// nil when the analysis was built without a factor plan.
	grid *ndGrid
}

// ndGrid is the pattern side of one fine-ND block's 2D input hierarchy:
// pat[i][j] holds the sparsity pattern of coupled block (i,j) (its values
// are the analyzed matrix's) and src[i][j] maps each entry to its position
// in the globally permuted matrix. Read-only after construction; numeric
// factorizations share the patterns and gather into private value buffers.
type ndGrid struct {
	pat [][]*sparse.CSC
	src [][][]int
}

// buildNDGrid extracts the coupled 2D blocks of the fine-ND hierarchy
// rooted at permuted offset r0, with entry maps for later value gathers.
func buildNDGrid(perm *sparse.CSC, r0 int, s *ndSym) *ndGrid {
	nb := s.nb
	g := &ndGrid{
		pat: make([][]*sparse.CSC, nb),
		src: make([][][]int, nb),
	}
	for i := 0; i < nb; i++ {
		g.pat[i] = make([]*sparse.CSC, nb)
		g.src[i] = make([][]int, nb)
	}
	attach := func(i, j int) {
		ri0, ri1 := s.blockRange(i)
		cj0, cj1 := s.blockRange(j)
		g.pat[i][j], g.src[i][j] = perm.ExtractBlockWithMap(r0+ri0, r0+ri1, r0+cj0, r0+cj1)
	}
	for j := 0; j < nb; j++ {
		attach(j, j) // diagonal
		for _, i := range s.ancestors[j] {
			attach(i, j) // lower: ancestors of j
		}
		for i := s.subLo[j]; i < j; i++ {
			attach(i, j) // upper: descendants of j
		}
	}
	return g
}

func newNDSym(tree *nd.Tree) *ndSym {
	nb := tree.NumBlocks()
	s := &ndSym{
		tree:      tree,
		nb:        nb,
		p:         tree.NumLeaves,
		subLo:     make([]int, nb),
		ancestors: make([][]int, nb),
		owner:     make([]int, nb),
		leafLo:    make([]int, nb),
		leafHi:    make([]int, nb),
		height:    tree.Height,
		maxDim:    1,
	}
	leafRank := make(map[int]int, len(tree.Leaves))
	for r, leaf := range tree.Leaves {
		leafRank[leaf] = r
	}
	// Postorder layout: children precede parents; compute subtree spans and
	// leaf ranges bottom-up (ids ascending visit children first).
	children := make([][]int, nb)
	for b := 0; b < nb; b++ {
		if par := tree.Parent[b]; par != -1 {
			children[par] = append(children[par], b)
		}
	}
	for b := 0; b < nb; b++ {
		if len(children[b]) == 0 {
			s.subLo[b] = b
			s.leafLo[b] = leafRank[b]
			s.leafHi[b] = leafRank[b]
			continue
		}
		lo, llo, lhi := b, 1<<30, -1
		for _, c := range children[b] {
			if s.subLo[c] < lo {
				lo = s.subLo[c]
			}
			if s.leafLo[c] < llo {
				llo = s.leafLo[c]
			}
			if s.leafHi[c] > lhi {
				lhi = s.leafHi[c]
			}
		}
		s.subLo[b] = lo
		s.leafLo[b] = llo
		s.leafHi[b] = lhi
	}
	for b := 0; b < nb; b++ {
		s.owner[b] = s.leafLo[b]
		for a := tree.Parent[b]; a != -1; a = tree.Parent[a] {
			s.ancestors[b] = append(s.ancestors[b], a)
		}
		if s.height[b] > s.maxH {
			s.maxH = s.height[b]
		}
		s.maxDim = max(s.maxDim, tree.BlockSize(b))
	}
	return s
}

// ndNum is the numeric 2D factorization: one CSC per live block of the
// hierarchical layout, exactly the paper's "hierarchy of two-dimensional
// sparse matrix blocks" storing both the reordered matrix and its factors.
type ndNum struct {
	sym  *ndSym
	n    int
	diag []*gp.Factors
	// lower[I][J] (I ancestor of J): L̃ block in unpermuted I-rows,
	// elimination-step columns of J. upper[K][J] (K descendant of J):
	// U block in pivot-space K-rows.
	lower [][]*sparse.CSC
	upper [][]*sparse.CSC
	// a[I][J] holds the permuted input blocks for every coupled pair
	// (patterns shared with the grid, values private to this numeric).
	a [][]*sparse.CSC
	// aSrc[I][J] maps every entry of a[I][J] to its position in the
	// globally permuted matrix: refreshing the input hierarchy — for a
	// fresh factorization or an in-place refactorization — is a pure value
	// gather.
	aSrc [][][]int
	// red[I][J] caches the reduced blocks Â_IJ = A_IJ − Σ L·U wherever a
	// reduction feeds a kernel, so the in-place refactorization sweep can
	// refresh their values over the same (structural) patterns the first
	// factorization discovered.
	red [][]*sparse.CSC

	opts  Options
	flags *epochBlockFlags
	barr  *barrier
	// lastContended snapshots the flag fabric's cumulative contended-wait
	// counter so each factorization reports its own SyncWaits delta.
	lastContended int64
	// fws/fmark/facc/ftag are the pooled per-worker workspaces of the fresh
	// factorization sweep, allocated once and reused across FactorInto;
	// flows/fups are the per-worker reduction gather buffers.
	fws   []*gp.Workspace
	fmark [][]int
	facc  [][]float64
	ftag  []int
	flows [][]*sparse.CSC
	fups  [][]*sparse.CSC
	// fdws[t] is worker t's pooled dense panel workspace, lazily built on
	// the first dense-tagged kernel it runs (nil forever on untagged
	// hierarchies, so the low-fill path carries no dense-layer cost).
	fdws []*dense.Workspace
	// re holds the reusable state of the in-place refactorization sweep
	// (pooled per-worker workspaces, the resettable epoch flag fabric).
	// Built on the first Refactor.
	re *ndRefactor

	errMu    sync.Mutex
	firstErr error

	// SyncWaits counts point-to-point waits that actually blocked, for the
	// synchronization ablation experiment. SyncWaitNs is the wall-clock
	// nanoseconds those blocked waits (plus barrier waits in SyncBarrier
	// mode) cost during the last sweep — measured on the contended slow
	// path even when tracing is off.
	SyncWaits  int64
	SyncWaitNs int64
	// lastWaitNs snapshots the combined flag+barrier wait-nanos counters,
	// mirroring lastContended, so each sweep reports its own delta.
	lastWaitNs int64

	// blk is the coarse BTF block id this hierarchy factors (trace labels
	// only); rec receives scheduler events when tracing is enabled; phase
	// tags the events of the current sweep (fresh factor vs refresh).
	blk   int
	rec   *trace.Recorder
	phase trace.Phase
	// fwait[t] accumulates worker t's blocked wait nanos within the current
	// sweep, so each recorded event can carry the wait since the previous
	// one. Only maintained when rec is non-nil.
	fwait []int64
	// denseHits counts kernel executions routed through the dense panel
	// layer — the numeric-side counterpart of Symbolic.DenseKernels.
	denseHits atomic.Int64
	// snHits counts kernel executions routed through the supernodal blocked
	// panels — the numeric-side counterpart of Symbolic.Supernodes.
	snHits atomic.Int64

	// phaseDur[t][phase] is thread t's compute time in each step of the
	// static schedule. All threads traverse the same phase sequence, so the
	// simulated p-core makespan of the schedule is Σ_phase max_t duration —
	// the hardware-substitution timing model of DESIGN.md.
	phaseDur [][]float64
}

// simSeconds returns the simulated parallel makespan of the recorded
// schedule.
func (num *ndNum) simSeconds() float64 {
	total := 0.0
	if len(num.phaseDur) == 0 {
		return 0
	}
	phases := len(num.phaseDur[0])
	for ph := 0; ph < phases; ph++ {
		max := 0.0
		for t := range num.phaseDur {
			if ph < len(num.phaseDur[t]) && num.phaseDur[t][ph] > max {
				max = num.phaseDur[t][ph]
			}
		}
		total += max
	}
	return total
}

// blockRange returns the index range of tree block b within the ND matrix.
func (s *ndSym) blockRange(b int) (int, int) {
	return s.tree.BlockPtr[b], s.tree.BlockPtr[b+1]
}

// factorND runs the parallel numeric factorization of one fine-ND block
// (Algorithm 4 at block granularity; column-level interleaving is replaced
// by per-block point-to-point flags, which preserves the dependency
// structure of the paper's dependency tree). Same-pattern numeric
// refreshes with fixed pivots go through refactorInPlace instead.
//
// The block is coarse BTF block blk (trace labeling only) and occupies
// [r0, r0+n) of the globally permuted matrix perm. grid supplies the 2D
// input patterns and gather maps (nil builds them from perm — the slow path
// for matrices whose pattern was never analyzed). reuse, if non-nil,
// recycles a prior factorization's entire storage — input grids, diagonal
// factors, off-diagonal blocks, workspaces and the flag fabric — so
// repeated fresh factorizations stop allocating; on error its contents are
// unspecified.
func factorND(perm *sparse.CSC, blk, r0 int, sym *ndSym, opts Options, grid *ndGrid, reuse *ndNum) (*ndNum, error) {
	if grid == nil {
		grid = buildNDGrid(perm, r0, sym)
	}
	num := reuse
	if num == nil {
		nb := sym.nb
		num = &ndNum{
			sym:   sym,
			n:     grid.n(),
			opts:  opts,
			diag:  make([]*gp.Factors, nb),
			aSrc:  grid.src,
			flags: newEpochBlockFlags(nb),
			lower: make([][]*sparse.CSC, nb),
			upper: make([][]*sparse.CSC, nb),
			a:     make([][]*sparse.CSC, nb),
			red:   make([][]*sparse.CSC, nb),
			fws:   make([]*gp.Workspace, sym.p),
			fmark: make([][]int, sym.p),
			facc:  make([][]float64, sym.p),
			ftag:  make([]int, sym.p),
			flows: make([][]*sparse.CSC, sym.p),
			fups:  make([][]*sparse.CSC, sym.p),
			fdws:  make([]*dense.Workspace, sym.p),
		}
		for i := 0; i < nb; i++ {
			num.a[i] = make([]*sparse.CSC, nb)
			num.lower[i] = make([]*sparse.CSC, nb)
			num.upper[i] = make([]*sparse.CSC, nb)
			num.red[i] = make([]*sparse.CSC, nb)
		}
		for i := 0; i < nb; i++ {
			for j, pat := range grid.pat[i] {
				if pat != nil {
					num.a[i][j] = pat.SharePattern()
				}
			}
		}
		num.phaseDur = make([][]float64, sym.p)
		if opts.Sync == SyncBarrier {
			num.barr = newBarrier(sym.p)
			if opts.ctl != nil {
				// Register with the owning Numeric's cancel source so a
				// fired deadline or stall verdict wakes barrier sleepers
				// (with a cancellation cause, not a failure one).
				opts.ctl.registerBarrier(num.barr)
			}
		}
	} else {
		num.flags.Reset()
		if num.barr != nil {
			num.barr.reset() // a prior failed sweep leaves the barrier broken
		}
		num.firstErr = nil
		for t := range num.phaseDur {
			num.phaseDur[t] = num.phaseDur[t][:0]
		}
	}
	num.blk = blk
	// Refresh the resident options on reuse too: a recovery factorization
	// may carry a tightened pivot tolerance or an armed fault injector.
	// The flag fabric binds to the owner's cancel source so inner waits
	// unblock on cancellation (Bind is idempotent; ctl is per-Numeric).
	num.opts = opts
	num.flags.Bind(opts.ctl)
	num.rec = opts.Trace
	num.phase = trace.PhaseFactor
	num.resetWaitAccounting()
	// Gather the input hierarchy's values from the permuted matrix.
	for i := range num.a {
		for j, src := range num.aSrc[i] {
			if src != nil {
				sparse.ExtractBlockInto(num.a[i][j], perm, src)
			}
		}
	}
	if sym.p == 1 {
		num.worker(0)
	} else {
		var wg sync.WaitGroup
		for t := 0; t < sym.p; t++ {
			wg.Add(1)
			go func(t int) {
				// Panic isolation: record the panic as the sweep error and
				// fail the flag fabric (and barrier) so cooperating siblings
				// abort their waits instead of deadlocking. The WaitGroup is
				// the join, so no completion slots need force-releasing.
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						num.fail(panicError(r))
					}
				}()
				num.worker(t)
			}(t)
		}
		wg.Wait()
	}
	// Snapshot the contended-wait counters before the error return, so a
	// failed sweep's waits never leak into the next sweep's SyncWaits delta.
	total := num.flags.Contended()
	delta := total - num.lastContended
	num.lastContended = total
	waitDelta := num.snapshotWaitNs()
	if num.firstErr == nil && opts.ctl != nil && opts.ctl.Canceled() {
		// Workers unwound cooperatively without a numeric failure: report
		// the abort so a partially-built hierarchy is never published.
		num.firstErr = errSweepAborted
	}
	if num.firstErr != nil {
		return nil, num.firstErr
	}
	num.SyncWaits = delta
	num.SyncWaitNs = waitDelta
	return num, nil
}

// resetWaitAccounting prepares the per-worker wait accumulators for a new
// traced sweep (a no-op burden-wise when tracing is off: fwait stays nil).
func (num *ndNum) resetWaitAccounting() {
	if num.rec == nil {
		return
	}
	if num.fwait == nil {
		num.fwait = make([]int64, num.sym.p)
	}
	for t := range num.fwait {
		num.fwait[t] = 0
	}
}

// snapshotWaitNs returns the blocked-wait nanoseconds (fresh-sweep flag
// fabric plus barrier) accumulated since the previous snapshot.
func (num *ndNum) snapshotWaitNs() int64 {
	cur := num.flags.WaitNanos()
	if num.barr != nil {
		cur += num.barr.waitNs()
	}
	delta := cur - num.lastWaitNs
	num.lastWaitNs = cur
	return delta
}

// workerScratch returns worker t's pooled workspace, mark array and dense
// accumulator, lazily built on first use and shared by the fresh and
// in-place sweeps (mutually exclusive by contract).
func (num *ndNum) workerScratch(t int) (*gp.Workspace, []int, []float64) {
	if num.fws[t] == nil {
		num.fws[t] = gp.NewWorkspace(num.sym.maxDim)
		num.fmark[t] = make([]int, num.n+1)
		num.facc[t] = make([]float64, num.n+1)
	}
	return num.fws[t], num.fmark[t], num.facc[t]
}

// denseWS returns worker t's pooled dense panel workspace.
func (num *ndNum) denseWS(t int) *dense.Workspace {
	if num.fdws[t] == nil {
		num.fdws[t] = dense.NewWorkspace()
	}
	return num.fdws[t]
}

// useDense reports whether kernel (i, j) runs on the dense panel layer:
// tagged at Analyze time from the symbolic density estimates, and not
// ablated away. The decision is value-independent and fixed per analysis,
// so every sweep of this numeric routes the kernel the same way and the
// block patterns stay stable.
func (num *ndNum) useDense(i, j int) bool {
	return !num.opts.NoDenseKernels && num.sym.isDense(i, j)
}

// upperKernel computes U_kj = L_kk⁻¹·P_k·Â_kj from the reduced block ahat:
// the dense panel TRSM when both the kernel and the solving diagonal are
// dense-tagged (the dense path reads L's contiguous dense columns), the
// sparse Gilbert–Peierls reach solve otherwise.
func (num *ndNum) upperKernel(k, j int, ahat *sparse.CSC, ws *gp.Workspace, t int) *sparse.CSC {
	if num.useDense(k, j) && num.useDense(k, k) {
		num.denseHits.Add(1)
		return num.diag[k].DenseUpperSolveInto(num.upper[k][j], ahat, num.denseWS(t))
	}
	return num.solveUpper(k, ahat, ws, num.upper[k][j])
}

// lowerKernel computes L_ij solving X·U_jj = Â_ij: the dense panel TRSM
// when both the kernel and the diagonal are dense-tagged, the sparse
// column sweep otherwise.
func (num *ndNum) lowerKernel(i, j int, ahat *sparse.CSC, mark []int, tagp *int, acc []float64, t int) *sparse.CSC {
	if num.useDense(i, j) && num.useDense(j, j) {
		num.denseHits.Add(1)
		return num.diag[j].DenseLowerSolveInto(num.lower[i][j], ahat, num.denseWS(t))
	}
	return num.diag[j].LowerBlockSolveInto(num.lower[i][j], ahat, mark, tagp, acc)
}

// reduceKernel assembles the reduced block Â_ij = A_ij − Σ L·U feeding
// kernel (i, j), caching it in red[i][j] for the in-place refresh sweeps:
// the dense accumulation panel for dense-tagged targets (no occupancy
// marks, no pattern sort), the scatter-accumulate otherwise. With no
// contributions the input block passes through untouched.
func (num *ndNum) reduceKernel(i, j int, lows, ups []*sparse.CSC, mark []int, tagp *int, acc []float64, t int) *sparse.CSC {
	if len(lows) == 0 {
		return num.a[i][j]
	}
	if num.useDense(i, j) {
		num.denseHits.Add(1)
		num.red[i][j] = reduceBlockDense(num.a[i][j], lows, ups, num.red[i][j], num.denseWS(t))
	} else {
		num.red[i][j] = reduceBlock(num.a[i][j], lows, ups, mark, tagp, acc, num.red[i][j])
	}
	return num.red[i][j]
}

// n reports the dimension of the grid's square hierarchy.
func (g *ndGrid) n() int {
	n := 0
	for j := range g.pat {
		if d := g.pat[j][j]; d != nil {
			n += d.N
		}
	}
	return n
}

// compactStorage clips every factor block to its exact length (fresh
// factorizations only; pooled reuse keeps the slack).
func (num *ndNum) compactStorage() {
	for _, f := range num.diag {
		if f != nil {
			f.Compact()
		}
	}
	for i := range num.lower {
		for j := range num.lower[i] {
			if b := num.lower[i][j]; b != nil {
				b.Compact()
			}
			if b := num.upper[i][j]; b != nil {
				b.Compact()
			}
			if b := num.red[i][j]; b != nil {
				b.Compact()
			}
		}
	}
}

func (num *ndNum) fail(err error) {
	num.errMu.Lock()
	if num.firstErr == nil {
		num.firstErr = err
	}
	num.errMu.Unlock()
	num.flags.fail()
	if num.barr != nil {
		num.barr.breakBarrier()
	}
}

// sync points: in barrier mode every thread meets at every step; in
// point-to-point mode these are no-ops and only flag waits synchronize.
// Worker index t charges the blocked time to the right trace lane.
func (num *ndNum) phaseBarrier(t int) bool {
	if num.barr == nil {
		return !num.flags.Aborted()
	}
	if num.rec == nil {
		return num.barr.await()
	}
	t0 := time.Now()
	ok := num.barr.await()
	num.fwait[t] += time.Since(t0).Nanoseconds()
	return ok
}

// waitOn waits for kernel (i, j) on the given flag fabric (the fresh
// sweep's or the refactor sweep's), charging the blocked time to worker
// t's trace lane when tracing is on.
func (num *ndNum) waitOn(flags *epochBlockFlags, i, j, t int) bool {
	if num.rec == nil {
		return flags.wait(i, j)
	}
	ns, ok := flags.waitTimed(i, j)
	num.fwait[t] += ns
	return ok
}

// flushWait emits a zero-length event carrying worker t's trailing blocked
// wait (waits not followed by any compute would otherwise be lost from the
// sweep summary). Called via defer on traced workers only.
func (num *ndNum) flushWait(t int, waitMark *int64) {
	w := num.fwait[t] - *waitMark
	if w <= 0 {
		return
	}
	end := num.rec.Now()
	num.rec.Record(trace.Event{
		Start:  end,
		End:    end,
		Wait:   w,
		Worker: trace.NDWorker(num.blk, t),
		Block:  int32(num.blk),
		Kind:   trace.KindNDKernel,
		Phase:  num.phase,
	})
	*waitMark = num.fwait[t]
}

// worker runs the static schedule of thread t. Each schedule step is
// timed (compute only, not waits) into phaseDur for the simulated-makespan
// model. All scratch comes from the pooled per-worker workspaces, so a
// recycled factorization allocates nothing here.
func (num *ndNum) worker(t int) {
	num.opts.Inject.WorkerPanic(faultinject.SweepND, t)
	num.opts.Inject.StallPoint(faultinject.SweepND, num.blk)
	s := num.sym
	leaf := s.tree.Leaves[t]
	ws, mark, acc := num.workerScratch(t)
	tag := num.ftag[t]
	defer func() { num.ftag[t] = tag }()
	rec := num.rec
	var waitMark int64
	if rec != nil {
		defer num.flushWait(t, &waitMark)
	}
	var busy float64
	compute := func(f func() error) bool {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		busy += d.Seconds()
		if rec != nil {
			end := rec.Now()
			rec.Record(trace.Event{
				Start:  end - d.Nanoseconds(),
				End:    end,
				Wait:   num.fwait[t] - waitMark,
				Worker: trace.NDWorker(num.blk, t),
				Block:  int32(num.blk),
				Kind:   trace.KindNDKernel,
				Phase:  num.phase,
			})
			waitMark = num.fwait[t]
		}
		if err != nil {
			num.fail(err)
			return false
		}
		return true
	}
	endPhase := func() {
		num.phaseDur[t] = append(num.phaseDur[t], busy)
		busy = 0
	}

	// ---- treelevel -1: factor the leaf diagonal and its lower blocks.
	ok := compute(func() error {
		if err := num.factorDiag(leaf, num.a[leaf][leaf], ws, t); err != nil {
			return err
		}
		num.flags.set(leaf, leaf)
		for _, i := range s.ancestors[leaf] {
			num.lower[i][leaf] = num.lowerKernel(i, leaf, num.a[i][leaf], mark, &tag, acc, t)
			num.flags.set(i, leaf)
		}
		return nil
	})
	endPhase()
	if !ok || !num.phaseBarrier(t) {
		return
	}

	// ---- separator columns, bottom-up (the paper's slevel loop).
	for slevel := 1; slevel <= s.maxH; slevel++ {
		j := ancestorAtHeight(s, leaf, slevel)
		// Step A (treelevel 0): my leaf's upper block U_{leaf,j}.
		ok = compute(func() error {
			num.upper[leaf][j] = num.upperKernel(leaf, j, num.a[leaf][j], ws, t)
			num.flags.set(leaf, j)
			return nil
		})
		endPhase()
		if !ok || !num.phaseBarrier(t) {
			return
		}
		// Step B: internal path nodes I owned by this thread.
		for h := 1; h < slevel; h++ {
			k := ancestorAtHeight(s, leaf, h)
			if s.owner[k] == t {
				lows, ups, ok2 := num.gatherReductionOn(num.flags, k, j, t)
				if !ok2 {
					endPhase()
					return
				}
				if !compute(func() error {
					ahat := num.reduceKernel(k, j, lows, ups, mark, &tag, acc, t)
					num.upper[k][j] = num.upperKernel(k, j, ahat, ws, t)
					num.flags.set(k, j)
					return nil
				}) {
					endPhase()
					return
				}
			}
			endPhase()
			if !num.phaseBarrier(t) {
				return
			}
		}
		// Step C: the diagonal LU_jj by the owner of j.
		if s.owner[j] == t {
			lows, ups, ok2 := num.gatherReductionOn(num.flags, j, j, t)
			if !ok2 {
				endPhase()
				return
			}
			if !compute(func() error {
				ahat := num.reduceKernel(j, j, lows, ups, mark, &tag, acc, t)
				if err := num.factorDiag(j, ahat, ws, t); err != nil {
					return err
				}
				num.flags.set(j, j)
				return nil
			}) {
				endPhase()
				return
			}
		}
		endPhase()
		if !num.phaseBarrier(t) {
			return
		}
		// Step D: lower blocks L_ij for ancestors i of j, distributed
		// round-robin over the threads of subtree(j).
		if !num.waitOn(num.flags, j, j, t) {
			return
		}
		nsub := s.leafHi[j] - s.leafLo[j] + 1
		for idx, i := range s.ancestors[j] {
			if idx%nsub != t-s.leafLo[j] {
				continue
			}
			lows, ups, ok2 := num.gatherRowReductionOn(num.flags, i, j, t)
			if !ok2 {
				endPhase()
				return
			}
			if !compute(func() error {
				ahat := num.reduceKernel(i, j, lows, ups, mark, &tag, acc, t)
				num.lower[i][j] = num.lowerKernel(i, j, ahat, mark, &tag, acc, t)
				num.flags.set(i, j)
				return nil
			}) {
				endPhase()
				return
			}
		}
		endPhase()
		if !num.phaseBarrier(t) {
			return
		}
	}
}

// factorDiag factors diagonal block b from matrix m, reusing the block's
// prior factor storage when present; dense-tagged diagonals go through the
// pivoted panel LU (worker index t selects the pooled panel workspace).
func (num *ndNum) factorDiag(b int, m *sparse.CSC, ws *gp.Workspace, t int) error {
	if num.diag[b] == nil {
		num.diag[b] = &gp.Factors{}
	}
	if num.useDense(b, b) {
		num.denseHits.Add(1)
		if err := gp.FactorDenseInto(num.diag[b], m, num.opts.gpOptions(), num.denseWS(t)); err != nil {
			return fmt.Errorf("core: nd diag block %d: %w", b, err)
		}
		return nil
	}
	hint := 0
	if num.sym.est != nil {
		hint = num.sym.est.diagNnz[b]
	}
	if sn := num.sym.snodesOf(b); sn != nil {
		num.snHits.Add(1)
		if err := gp.FactorSupernodalInto(num.diag[b], m, sn, hint, num.opts.gpOptions(), ws, num.denseWS(t)); err != nil {
			return fmt.Errorf("core: nd diag block %d: %w", b, err)
		}
		return nil
	}
	if err := gp.FactorInto(num.diag[b], m, hint, num.opts.gpOptions(), ws); err != nil {
		return fmt.Errorf("core: nd diag block %d: %w", b, err)
	}
	return nil
}

// gatherReductionOn waits (on the given flag fabric — the fresh sweep's or
// the refactor sweep's) for and collects the (lower, upper) block pairs
// feeding the reduction Â_kj = A_kj − Σ_{k' ∈ subtree(k)\{k}} L_kk'·U_k'j,
// i.e. the paper's two-phase reduction of Figure 4(d). Pairs land in worker
// t's reusable buffers (no steady-state allocation).
func (num *ndNum) gatherReductionOn(flags *epochBlockFlags, k, j, t int) (lows, ups []*sparse.CSC, ok bool) {
	s := num.sym
	lows, ups = num.flows[t][:0], num.fups[t][:0]
	for kp := s.subLo[k]; kp < k; kp++ {
		if !num.waitOn(flags, kp, j, t) || !num.waitOn(flags, k, kp, t) {
			return lows, ups, false
		}
		if num.upper[kp][j] == nil || num.lower[k][kp] == nil {
			continue
		}
		lows = append(lows, num.lower[k][kp])
		ups = append(ups, num.upper[kp][j])
	}
	num.flows[t], num.fups[t] = lows, ups
	return lows, ups, true
}

// gatherRowReductionOn collects pairs for a lower target row i (an ancestor
// of column j): Â_ij = A_ij − Σ_{k' ∈ subtree(j)\{j}} L_ik'·U_k'j.
func (num *ndNum) gatherRowReductionOn(flags *epochBlockFlags, i, j, t int) (lows, ups []*sparse.CSC, ok bool) {
	s := num.sym
	lows, ups = num.flows[t][:0], num.fups[t][:0]
	for kp := s.subLo[j]; kp < j; kp++ {
		if !num.waitOn(flags, kp, j, t) || !num.waitOn(flags, i, kp, t) {
			return lows, ups, false
		}
		if num.upper[kp][j] == nil || num.lower[i][kp] == nil {
			continue
		}
		lows = append(lows, num.lower[i][kp])
		ups = append(ups, num.upper[kp][j])
	}
	num.flows[t], num.fups[t] = lows, ups
	return lows, ups, true
}

// solveUpper computes U_kj = L_kk⁻¹ P_k Â_kj column by column with
// Gilbert–Peierls pattern discovery over the pruned prefix of L_kk (the
// caller supplies the reduced block ahat). recycle, if non-nil, is reset
// and refilled so repeated fresh factorizations stop allocating. The output
// pattern is the structural DFS reach — exact-zero values are kept — so a
// same-pattern refactorization can refresh the block's values in place with
// gp.RefactorUpperBlock.
func (num *ndNum) solveUpper(k int, ahat *sparse.CSC, ws *gp.Workspace, recycle *sparse.CSC) *sparse.CSC {
	f := num.diag[k]
	out := recycle
	if out == nil {
		out = sparse.NewCSC(ahat.M, ahat.N, ahat.Nnz()*2)
	} else {
		out.ResetShape(ahat.M, ahat.N)
	}
	for c := 0; c < ahat.N; c++ {
		bIdx := ahat.Rowidx[ahat.Colptr[c]:ahat.Colptr[c+1]]
		bVal := ahat.Values[ahat.Colptr[c]:ahat.Colptr[c+1]]
		patt := f.SolveSparseL(bIdx, bVal, ws)
		// Copy out sorted: sort the index pattern alone, then gather the
		// values in sorted order (cheaper than co-sorting two arrays).
		start := len(out.Rowidx)
		out.Rowidx = append(out.Rowidx, patt...)
		seg := out.Rowidx[start:]
		sort.Ints(seg)
		for _, r := range seg {
			out.Values = append(out.Values, ws.X[r])
		}
		gp.ClearSparse(ws, patt)
		out.Colptr[c+1] = len(out.Rowidx)
	}
	return out
}

// reduceBlock assembles Â = A0 − Σ_t lows[t]·ups[t] as a CSC with sorted
// columns, writing into recycle's storage when non-nil. A0 may be nil
// (treated as zero) when a block has no original entries. The output
// pattern is structural (the union of the contributing patterns,
// independent of the values), the invariant reduceBlockInto relies on to
// refresh the same block in place.
func reduceBlock(a0 *sparse.CSC, lows, ups []*sparse.CSC, mark []int, tagp *int, acc []float64, recycle *sparse.CSC) *sparse.CSC {
	m, n := 0, 0
	if a0 != nil {
		m, n = a0.M, a0.N
	} else {
		m, n = lows[0].M, ups[0].N
	}
	out := recycle
	if out == nil {
		nnzHint := 0
		if a0 != nil {
			nnzHint = a0.Nnz()
		}
		out = sparse.NewCSC(m, n, nnzHint*2)
	} else {
		out.ResetShape(m, n)
	}
	for c := 0; c < n; c++ {
		*tagp++
		tag := *tagp
		// Column work estimate picks the emission strategy: columns whose
		// flop count rivals the block height skip pattern collection
		// entirely — marks are set unconditionally and the rows are scanned
		// in order (sorted for free, no append, no sort). Sparse columns
		// collect their pattern and sort it. Both produce the identical
		// structural pattern (mark membership does not depend on values).
		work := 0
		if a0 != nil {
			work = a0.Colptr[c+1] - a0.Colptr[c]
		}
		for t := range ups {
			up := ups[t]
			lo := lows[t]
			for p := up.Colptr[c]; p < up.Colptr[c+1]; p++ {
				k := up.Rowidx[p]
				work += lo.Colptr[k+1] - lo.Colptr[k]
			}
		}
		if work*2 >= m {
			// ---- Dense-merge emission.
			if a0 != nil {
				for p := a0.Colptr[c]; p < a0.Colptr[c+1]; p++ {
					i := a0.Rowidx[p]
					mark[i] = tag
					acc[i] += a0.Values[p]
				}
			}
			for t := range lows {
				lo, up := lows[t], ups[t]
				for p := up.Colptr[c]; p < up.Colptr[c+1]; p++ {
					k := up.Rowidx[p]
					ukc := up.Values[p]
					rows := lo.Rowidx[lo.Colptr[k]:lo.Colptr[k+1]]
					vals := lo.Values[lo.Colptr[k]:lo.Colptr[k+1]]
					vals = vals[:len(rows)] // bounds-check elimination hint
					for qi, i := range rows {
						acc[i] -= vals[qi] * ukc
						mark[i] = tag
					}
				}
			}
			for i := 0; i < m; i++ {
				if mark[i] == tag {
					out.Rowidx = append(out.Rowidx, i)
					out.Values = append(out.Values, acc[i])
					acc[i] = 0
				}
			}
			out.Colptr[c+1] = len(out.Rowidx)
			continue
		}
		// ---- Sparse emission: collect the pattern, then sort.
		start := len(out.Rowidx)
		if a0 != nil {
			for p := a0.Colptr[c]; p < a0.Colptr[c+1]; p++ {
				i := a0.Rowidx[p]
				if mark[i] != tag {
					mark[i] = tag
					out.Rowidx = append(out.Rowidx, i)
				}
				acc[i] += a0.Values[p]
			}
		}
		for t := range lows {
			lo, up := lows[t], ups[t]
			for p := up.Colptr[c]; p < up.Colptr[c+1]; p++ {
				k := up.Rowidx[p]
				ukc := up.Values[p]
				rows := lo.Rowidx[lo.Colptr[k]:lo.Colptr[k+1]]
				vals := lo.Values[lo.Colptr[k]:lo.Colptr[k+1]]
				vals = vals[:len(rows)] // bounds-check elimination hint
				for qi, i := range rows {
					acc[i] -= vals[qi] * ukc
					if mark[i] != tag {
						mark[i] = tag
						out.Rowidx = append(out.Rowidx, i)
					}
				}
			}
		}
		seg := out.Rowidx[start:]
		sort.Ints(seg)
		for _, i := range seg {
			out.Values = append(out.Values, acc[i])
			acc[i] = 0
		}
		out.Colptr[c+1] = len(out.Rowidx)
	}
	return out
}

// reduceBlockDense assembles Â = A0 − Σ_t lows[t]·ups[t] through a dense
// accumulation panel — no occupancy marks, no pattern collection, no sort —
// and emits a structural fully dense block into recycle's storage (nil
// allocates). The contribution order per element matches reduceBlock and
// reduceBlockInto exactly (A0 first, then the pairs in order, each upper
// entry scattering its lower column), so the in-place refresh sweeps
// reproduce dense-reduced blocks bitwise. Contributor columns that are
// themselves fully dense (dense-built factor blocks) collapse to contiguous
// axpys — the blocked rank-k update of the dense layer.
func reduceBlockDense(a0 *sparse.CSC, lows, ups []*sparse.CSC, recycle *sparse.CSC, dws *dense.Workspace) *sparse.CSC {
	m, n := 0, 0
	if a0 != nil {
		m, n = a0.M, a0.N
	} else {
		m, n = lows[0].M, ups[0].N
	}
	panel := dws.Panel(m, n)
	for c := 0; c < n; c++ {
		col := panel.Col(c)
		if a0 != nil {
			for p := a0.Colptr[c]; p < a0.Colptr[c+1]; p++ {
				col[a0.Rowidx[p]] += a0.Values[p]
			}
		}
		for t := range lows {
			lo, up := lows[t], ups[t]
			for p := up.Colptr[c]; p < up.Colptr[c+1]; p++ {
				k := up.Rowidx[p]
				ukc := up.Values[p]
				if ukc == 0 {
					continue
				}
				rows := lo.Rowidx[lo.Colptr[k]:lo.Colptr[k+1]]
				vals := lo.Values[lo.Colptr[k]:lo.Colptr[k+1]]
				vals = vals[:len(rows)] // bounds-check elimination hint
				if len(rows) == m {
					// Fully dense contributor column: rows are 0..m-1.
					for i, v := range vals {
						col[i] -= v * ukc
					}
					continue
				}
				for qi, i := range rows {
					col[i] -= vals[qi] * ukc
				}
			}
		}
	}
	return sparse.FillDense(recycle, m, n, panel.Data)
}

func ancestorAtHeight(s *ndSym, leaf, h int) int {
	b := leaf
	for s.height[b] < h {
		b = s.tree.Parent[b]
	}
	return b
}

// ndSolve applies the 2D block forward/backward substitution to y (the
// right-hand side in ND-permuted local coordinates), in place. scratch is
// caller-provided pivot-application space of at least sym.maxDim elements,
// so repeated solves stay allocation-free and reentrant.
func (num *ndNum) ndSolve(y []float64, scratch []float64) {
	s := num.sym
	nb := s.nb
	// Forward: block columns ascending (postorder = matrix order).
	for k := 0; k < nb; k++ {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		f := num.diag[k]
		// Apply the block pivot then unit-lower solve.
		z := scratch[:c1-c0]
		for i := range z {
			z[i] = y[c0+f.P[i]]
		}
		f.LSolve(z)
		copy(y[c0:c1], z)
		// Subtract this block's influence on ancestor rows.
		for _, i := range s.ancestors[k] {
			lb := num.lower[i][k]
			if lb == nil {
				continue
			}
			r0, _ := s.blockRange(i)
			for c := 0; c < lb.N; c++ {
				xc := y[c0+c]
				if xc == 0 {
					continue
				}
				for p := lb.Colptr[c]; p < lb.Colptr[c+1]; p++ {
					y[r0+lb.Rowidx[p]] -= lb.Values[p] * xc
				}
			}
		}
	}
	// Backward: block columns descending; first subtract upper couplings
	// from ancestor solutions, then solve the diagonal.
	for k := nb - 1; k >= 0; k-- {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		// y_k -= Σ_{j ancestor} U_kj · x_j.
		for _, j := range s.ancestors[k] {
			ub := num.upper[k][j]
			if ub == nil {
				continue
			}
			j0, _ := s.blockRange(j)
			for c := 0; c < ub.N; c++ {
				xc := y[j0+c]
				if xc == 0 {
					continue
				}
				for p := ub.Colptr[c]; p < ub.Colptr[c+1]; p++ {
					y[c0+ub.Rowidx[p]] -= ub.Values[p] * xc
				}
			}
		}
		num.diag[k].USolve(y[c0:c1])
	}
}

// ndSolvePanel is ndSolve over a row-interleaved panel (y holds the block's
// rows for all gp.PanelLanes right-hand sides, scratch at least sym.maxDim
// rows): the same block order, every diagonal factor and coupling block
// traversed once for the eight lanes.
func (num *ndNum) ndSolvePanel(y, scratch []gp.PanelRow) {
	s := num.sym
	nb := s.nb
	for k := 0; k < nb; k++ {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		f := num.diag[k]
		z := scratch[:c1-c0]
		for i := range z {
			z[i] = y[c0+f.P[i]]
		}
		f.LSolvePanel(z)
		copy(y[c0:c1], z)
		for _, i := range s.ancestors[k] {
			if lb := num.lower[i][k]; lb != nil {
				r0, _ := s.blockRange(i)
				couplePanel(y[r0:], lb, y[c0:c1])
			}
		}
	}
	for k := nb - 1; k >= 0; k-- {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		for _, j := range s.ancestors[k] {
			if ub := num.upper[k][j]; ub != nil {
				j0, _ := s.blockRange(j)
				couplePanel(y[c0:], ub, y[j0:])
			}
		}
		num.diag[k].USolvePanel(y[c0:c1])
	}
}

// couplePanel subtracts coupling block b times the solved rows x from y.
func couplePanel(y []gp.PanelRow, b *sparse.CSC, x []gp.PanelRow) {
	for c := 0; c < b.N; c++ {
		if xc := &x[c]; !xc.IsZero() {
			p0, p1 := b.Colptr[c], b.Colptr[c+1]
			gp.PanelAxpy(y, b.Rowidx[p0:p1], b.Values[p0:p1], xc)
		}
	}
}

// ndSolveT applies the transposed 2D block substitution to y in place — the
// A⁻ᵀ application the condition estimator needs. With the block hierarchy
// factored as B = L̂Û (L̂ₖₖ = Pₖᵀ Lₖ, the per-block pivots applied by
// ndSolve's forward phase), Bᵀ x = y splits into an ascending Ûᵀ sweep
// (transpose-lower) and a descending L̂ᵀ sweep (transpose-upper). Couplings
// mirror ndSolve's exactly, as dot products instead of scattered updates.
// scratch needs sym.maxDim elements.
func (num *ndNum) ndSolveT(y []float64, scratch []float64) {
	s := num.sym
	nb := s.nb
	// Forward: Ûᵀ is block lower triangular, ascending block columns. After
	// w_k = U_k⁻ᵀ y_k, push this block's transposed upper couplings into the
	// ancestors it feeds.
	for k := 0; k < nb; k++ {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		num.diag[k].USolveT(y[c0:c1])
		for _, j := range s.ancestors[k] {
			ub := num.upper[k][j]
			if ub == nil {
				continue
			}
			j0, _ := s.blockRange(j)
			for c := 0; c < ub.N; c++ {
				sum := 0.0
				for p := ub.Colptr[c]; p < ub.Colptr[c+1]; p++ {
					sum += ub.Values[p] * y[c0+ub.Rowidx[p]]
				}
				y[j0+c] -= sum
			}
		}
	}
	// Backward: L̂ᵀ is block upper triangular, descending block columns.
	// Pull the transposed lower couplings from the already-solved ancestors,
	// then solve L̂ₖₖᵀ = Lₖᵀ Pₖ: unit-upper transpose solve, then scatter
	// through the block pivot.
	for k := nb - 1; k >= 0; k-- {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		for _, i := range s.ancestors[k] {
			lb := num.lower[i][k]
			if lb == nil {
				continue
			}
			r0, _ := s.blockRange(i)
			for c := 0; c < lb.N; c++ {
				sum := 0.0
				for p := lb.Colptr[c]; p < lb.Colptr[c+1]; p++ {
					sum += lb.Values[p] * y[r0+lb.Rowidx[p]]
				}
				y[c0+c] -= sum
			}
		}
		f := num.diag[k]
		z := scratch[:c1-c0]
		copy(z, y[c0:c1])
		f.LSolveT(z)
		for i := range z {
			y[c0+f.P[i]] = z[i]
		}
	}
}

// maxAbsU reports the largest absolute value on the U side of the 2D
// hierarchy: every diagonal factor's U plus every upper coupling block.
func (num *ndNum) maxAbsU() float64 {
	m := 0.0
	for _, f := range num.diag {
		if f != nil {
			if v := f.MaxAbsU(); v > m {
				m = v
			}
		}
	}
	for i := range num.upper {
		for _, ub := range num.upper[i] {
			if ub == nil {
				continue
			}
			if v := ub.MaxAbs(); v > m {
				m = v
			}
		}
	}
	return m
}

// finite reports whether every factored value of the 2D hierarchy (diagonal
// L/U factors plus both coupling triangles) is finite.
func (num *ndNum) finite() bool {
	for _, f := range num.diag {
		if f != nil && !finiteFactors(f) {
			return false
		}
	}
	for i := range num.lower {
		for j := range num.lower[i] {
			if b := num.lower[i][j]; b != nil && !finiteVals(b.Values[:b.Nnz()]) {
				return false
			}
			if b := num.upper[i][j]; b != nil && !finiteVals(b.Values[:b.Nnz()]) {
				return false
			}
		}
	}
	return true
}

// nnzLU sums the factored entries of the 2D structure.
func (num *ndNum) nnzLU() int {
	total := 0
	for _, f := range num.diag {
		if f != nil {
			total += f.NnzLU()
		}
	}
	for i := range num.lower {
		for j := range num.lower[i] {
			if num.lower[i][j] != nil {
				total += num.lower[i][j].Nnz()
			}
			if num.upper[i][j] != nil {
				total += num.upper[i][j].Nnz()
			}
		}
	}
	return total
}
