package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	// maxDim is the largest tree-block dimension: the size of the fine-ND
	// workers' Gilbert–Peierls workspaces.
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
	// Analyze time: gp.FactorInto factors the block over it, and
	// gp.Refactor refreshes it over the recorded partition. Only leaf
	// diagonals that the dense-tag gate did not claim are candidates. nil
	// when nothing merged (including Options.NoSupernodes and the est-free
	// unit-test path).
	snodes [][]int
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
	// globally permuted matrix: refreshing the input hierarchy is a pure
	// value gather in every mode.
	aSrc [][][]int
	// red[I][J] caches the reduced blocks Â_IJ = A_IJ − Σ L·U wherever a
	// reduction feeds a kernel, so the refresh sweeps can refill their
	// values over the same (structural) patterns the fresh sweep discovered.
	red [][]*sparse.CSC

	// opts are the options of the current sweep. flags is the resettable
	// point-to-point fabric, one completion slot per 2D block; every sweep
	// of this hierarchy, whatever its mode, runs on it — sweeps are mutually
	// exclusive by contract.
	opts  Options
	flags *epochBlockFlags
	// lastContended/lastWaitNs snapshot the fabric's cumulative
	// contended-wait count and blocked nanoseconds, so each sweep reports
	// its own SyncWaits/SyncWaitNs delta.
	lastContended int64
	lastWaitNs    int64
	// fws/fmark/facc/ftag are the pooled per-worker workspaces, allocated
	// once and reused by every sweep; flows/fups are the per-worker
	// reduction gather buffers.
	fws   []*gp.Workspace
	fmark [][]int
	facc  [][]float64
	ftag  []int
	flows [][]*sparse.CSC
	fups  [][]*sparse.CSC

	errMu    sync.Mutex
	firstErr error

	// SyncWaits counts point-to-point waits that actually blocked during the
	// last sweep, and SyncWaitNs the wall-clock nanoseconds they cost —
	// measured on the contended slow path even when tracing is off.
	SyncWaits  int64
	SyncWaitNs int64

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
}

// blockRange returns the index range of tree block b within the ND matrix.
func (s *ndSym) blockRange(b int) (int, int) {
	return s.tree.BlockPtr[b], s.tree.BlockPtr[b+1]
}

// newNDNum allocates the numeric 2D hierarchy of coarse BTF block blk (the
// id labels trace events and stall points) over the grid's input patterns.
func newNDNum(blk int, sym *ndSym, grid *ndGrid, opts Options) *ndNum {
	nb := sym.nb
	num := &ndNum{
		sym:   sym,
		n:     grid.n(),
		blk:   blk,
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
	}
	for i := 0; i < nb; i++ {
		num.a[i] = make([]*sparse.CSC, nb)
		num.lower[i] = make([]*sparse.CSC, nb)
		num.upper[i] = make([]*sparse.CSC, nb)
		num.red[i] = make([]*sparse.CSC, nb)
		for j, pat := range grid.pat[i] {
			if pat != nil {
				num.a[i][j] = pat.SharePattern()
			}
		}
	}
	// The flag fabric binds to the owner's cancel source so inner waits
	// unblock on cancellation.
	num.flags.Bind(opts.ctl)
	return num
}

// sweep runs one walk of this block's 2D schedule (Algorithm 4 at block
// granularity; column-level interleaving is replaced by per-block
// point-to-point flags, which preserves the dependency structure of the
// paper's dependency tree) in the given mode: modeFactor pivots every
// diagonal and rediscovers every pattern, recycling the hierarchy's whole
// storage; the refresh modes recompute values over the fixed pivots and
// patterns and allocate nothing in steady state. perm is the globally
// permuted matrix the input blocks gather from.
//
// st, when non-nil (modePartial), carries the sweep's changed-kernel matrix
// (st.chg, nb×nb row major): only kernels whose chg entry is true rerun,
// each whole — clean kernels keep their values and their completion flags
// are pre-armed, so dirty kernels still synchronize point-to-point exactly
// as in a full sweep — and the marking phase has already forwarded the
// changed input values, so nothing is regathered.
//
// On error the values are left partially computed and nothing may be
// published or solved with; opts carries the owner's cancel control, the
// per-sweep pivot tolerance and the fault injector.
func (num *ndNum) sweep(perm *sparse.CSC, opts Options, mode sweepMode, st *ndIncState) error {
	s := num.sym
	num.opts = opts
	num.rec = opts.Trace
	num.phase = sweepModes[mode].phase
	num.firstErr = nil
	num.flags.Reset()
	num.resetWaitAccounting()
	if st == nil {
		for i := range num.a {
			for j, src := range num.aSrc[i] {
				if src != nil {
					sparse.ExtractBlockInto(num.a[i][j], perm, src)
				}
			}
		}
	} else {
		for idx, c := range st.chg {
			if !c {
				num.flags.Set(idx)
			}
		}
	}
	if s.p == 1 {
		num.worker(0, mode, st)
	} else {
		var wg sync.WaitGroup
		for t := 0; t < s.p; t++ {
			wg.Add(1)
			go func(t int) {
				// Panic isolation: record the panic as the sweep error and
				// fail the flag fabric so cooperating siblings abort their
				// waits instead of deadlocking. The WaitGroup is the join,
				// so no completion slots need force-releasing.
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						num.fail(panicError(r))
					}
				}()
				num.worker(t, mode, st)
			}(t)
		}
		wg.Wait()
	}
	// Each sweep reports its own delta of the fabric's cumulative contended
	// counters — also when it failed, so its waits never leak into the next.
	contended, waitNs := num.flags.Contended(), num.flags.WaitNanos()
	num.SyncWaits, num.lastContended = contended-num.lastContended, contended
	num.SyncWaitNs, num.lastWaitNs = waitNs-num.lastWaitNs, waitNs
	if num.firstErr == nil && opts.ctl.Canceled() {
		// Workers unwound cooperatively without a numeric failure: report
		// the abort so a partially-built hierarchy is never published.
		num.firstErr = errSweepAborted
	}
	return num.firstErr
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

// workerScratch returns worker t's pooled workspace, mark array and dense
// accumulator, lazily built on first use.
func (num *ndNum) workerScratch(t int) (*gp.Workspace, []int, []float64) {
	if num.fws[t] == nil {
		num.fws[t] = gp.NewWorkspace(num.sym.maxDim)
		num.fmark[t] = make([]int, num.n+1)
		num.facc[t] = make([]float64, num.n+1)
	}
	return num.fws[t], num.fmark[t], num.facc[t]
}

// useDense reports whether kernel (i, j) runs on the dense panel layer:
// tagged at Analyze time from the symbolic density estimates, and not
// ablated away. The decision is value-independent and fixed per analysis,
// so every sweep of this numeric — fresh, full or partial — routes the
// kernel the same way, the block patterns stay stable and partial sweeps
// stay bitwise-comparable with full ones.
func (num *ndNum) useDense(i, j int) bool {
	return !num.opts.NoDenseKernels && num.sym.isDense(i, j)
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

// compactCouplings clips every coupling block to its exact length (fresh
// factorizations only; pooled reuse keeps the slack).
func (num *ndNum) compactCouplings() {
	for i := range num.lower {
		for j := range num.lower[i] {
			for _, b := range []*sparse.CSC{num.lower[i][j], num.upper[i][j], num.red[i][j]} {
				if b != nil {
					b.Compact()
				}
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
}

// wait waits for kernel (i, j), charging the blocked time to worker t's
// trace lane when tracing is on.
func (num *ndNum) wait(i, j, t int) bool {
	if num.rec == nil {
		return num.flags.wait(i, j)
	}
	ns, ok := num.flags.waitTimed(i, j)
	num.fwait[t] += ns
	return ok
}

// gatherReduction waits for and collects the (lower, upper) block pairs
// feeding the reduction Â_ij = A_ij − Σ_{k' ∈ subtree(sub)\{sub}} L_ik'·U_k'j,
// i.e. the paper's two-phase reduction of Figure 4(d): sub is i for an upper
// or diagonal target (i a descendant-or-self of j) and j for a lower target
// (i an ancestor of j). Pairs land in worker t's reusable buffers (no
// steady-state allocation).
func (num *ndNum) gatherReduction(i, j, sub, t int) (lows, ups []*sparse.CSC, ok bool) {
	lows, ups = num.flows[t][:0], num.fups[t][:0]
	for kp := num.sym.subLo[sub]; kp < sub; kp++ {
		if !num.wait(kp, j, t) || !num.wait(i, kp, t) {
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

// ndLane is one team worker's private state for the current sweep: its
// pooled scratch, the mode and mask, and the timing of the kernel span it is
// in. It lives on the worker's stack, and its span helpers are plain methods
// rather than closures, so the refresh sweeps stay allocation-free.
type ndLane struct {
	num  *ndNum
	t    int
	leaf int
	mode sweepMode
	st   *ndIncState
	ws   *gp.Workspace
	mark []int
	acc  []float64
	tag  int

	// t0 and kind describe the open span (t0 is read only when tracing;
	// kind starts as KindNDKernel and is raised by a kernel that routes
	// through the dense or supernodal layer); waitMark is the worker's
	// blocked-wait total when its last trace event was cut.
	t0       int64
	kind     trace.Kind
	waitMark int64
}

// live reports whether kernel (i, j) runs this sweep.
func (w *ndLane) live(i, j int) bool { return w.st == nil || w.st.chg[i*w.num.sym.nb+j] }

// begin opens a kernel span; end closes it and, when tracing, emits one
// event that carries the blocked wait accumulated since the previous event.
func (w *ndLane) begin() {
	w.kind = trace.KindNDKernel
	if rec := w.num.rec; rec != nil {
		w.t0 = rec.Now()
	}
}

func (w *ndLane) end() {
	if rec := w.num.rec; rec != nil {
		w.emit(rec.Now()-w.t0, w.kind)
	}
}

// emit records one trace event of the given length ending now, carrying the
// worker's blocked wait since its previous event.
func (w *ndLane) emit(ns int64, kind trace.Kind) {
	num := w.num
	end := num.rec.Now()
	num.rec.Record(trace.Event{
		Start:  end - ns,
		End:    end,
		Wait:   num.fwait[w.t] - w.waitMark,
		Worker: trace.NDWorker(num.blk, w.t),
		Block:  int32(num.blk),
		Kind:   kind,
		Phase:  num.phase,
	})
	w.waitMark = num.fwait[w.t]
}

// endStep closes one step of the static schedule and reports whether the
// sweep goes on: the step boundary polls for an abort, and only the flag
// waits synchronize.
func (w *ndLane) endStep() bool { return !w.num.flags.Aborted() }

// close returns the lane's mark tag to the pool and, when tracing, emits a
// zero-length event carrying the trailing blocked wait (waits not followed
// by any compute would otherwise be lost from the sweep summary).
func (w *ndLane) close() {
	num := w.num
	num.ftag[w.t] = w.tag
	if num.rec != nil && num.fwait[w.t] > w.waitMark {
		w.emit(0, trace.KindNDKernel)
	}
}

// worker runs thread t's static schedule: its leaf, then for every
// separator level the four steps A–D of the paper's slevel loop. Each
// kernel is its mode's variant (see the four kernel methods); the walk, the
// point-to-point flags and the abort protocol are the same in every mode.
// All scratch comes from the pooled per-worker
// workspaces, so a recycled or refreshed hierarchy allocates nothing here.
//
// In a partial sweep a live kernel reruns whole, except the leaf diagonal,
// which reruns only the closure of its dirty columns (see diagKernel).
func (num *ndNum) worker(t int, mode sweepMode, st *ndIncState) {
	num.opts.Inject.WorkerPanic(faultinject.SweepND, t)
	num.opts.Inject.StallPoint(faultinject.SweepND, num.blk)
	s := num.sym
	leaf := s.tree.Leaves[t]
	w := ndLane{num: num, t: t, leaf: leaf, mode: mode, st: st, tag: num.ftag[t]}
	w.ws, w.mark, w.acc = num.workerScratch(t)
	defer w.close()

	// ---- treelevel -1: the leaf diagonal and its lower blocks.
	w.begin()
	var err error
	if w.live(leaf, leaf) {
		if err = w.diagKernel(leaf, num.a[leaf][leaf]); err == nil {
			num.flags.set(leaf, leaf)
		}
	}
	if err == nil {
		for _, i := range s.ancestors[leaf] {
			if w.live(i, leaf) {
				w.lowerKernel(i, leaf, num.a[i][leaf])
				num.flags.set(i, leaf)
			}
		}
	}
	w.end()
	if err != nil {
		num.fail(err)
	}
	if !w.endStep() {
		return
	}

	// ---- separator columns, bottom-up (the paper's slevel loop).
	for slevel := 1; slevel <= s.maxH; slevel++ {
		j := ancestorAtHeight(s, leaf, slevel)
		// Step A (treelevel 0): my leaf's upper block U_{leaf,j}.
		if w.live(leaf, j) {
			w.begin()
			w.upperKernel(leaf, j, num.a[leaf][j])
			num.flags.set(leaf, j)
			w.end()
		}
		if !w.endStep() {
			return
		}
		// Step B: internal path nodes owned by this thread.
		for h := 1; h < slevel; h++ {
			k := ancestorAtHeight(s, leaf, h)
			if s.owner[k] == t && w.live(k, j) {
				lows, ups, ok := num.gatherReduction(k, j, k, t)
				if !ok {
					return
				}
				w.begin()
				w.upperKernel(k, j, w.reduceKernel(k, j, lows, ups))
				num.flags.set(k, j)
				w.end()
			}
			if !w.endStep() {
				return
			}
		}
		// Step C: the diagonal LU_jj by the owner of j.
		if s.owner[j] == t && w.live(j, j) {
			lows, ups, ok := num.gatherReduction(j, j, j, t)
			if !ok {
				return
			}
			w.begin()
			if err = w.diagKernel(j, w.reduceKernel(j, j, lows, ups)); err == nil {
				num.flags.set(j, j)
			}
			w.end()
			if err != nil {
				num.fail(err)
			}
		}
		if !w.endStep() {
			return
		}
		// Step D: lower blocks L_ij for ancestors i of j, distributed
		// round-robin over the threads of subtree(j).
		if !num.wait(j, j, t) {
			return
		}
		nsub := s.leafHi[j] - s.leafLo[j] + 1
		for idx, i := range s.ancestors[j] {
			if idx%nsub != t-s.leafLo[j] || !w.live(i, j) {
				continue
			}
			lows, ups, ok := num.gatherReduction(i, j, j, t)
			if !ok {
				return
			}
			w.begin()
			w.lowerKernel(i, j, w.reduceKernel(i, j, lows, ups))
			num.flags.set(i, j)
			w.end()
		}
		if !w.endStep() {
			return
		}
	}
}

// diagKernel factors (modeFactor) or refreshes diagonal block b from m — its
// input block at a leaf, the reduced block at a separator. A fresh factor
// picks its layout: dense-tagged diagonals go through gp.FactorDenseInto,
// the rest through gp.FactorInto over the block's supernode partition (nil,
// column at a time, unless Analyze found supernodes in a leaf); both end in
// the panel elimination every refresh runs. A refresh is one gp.Refactor,
// which follows the layout the factor recorded; under a mask the leaf
// reruns only the dependency closure of its dirty columns (a leaf diagonal
// consumes no reduction, so the input stamps tell the whole story), while a
// separator diagonal reruns whole.
func (w *ndLane) diagKernel(b int, m *sparse.CSC) error {
	num := w.num
	if num.diag[b] == nil {
		num.diag[b] = &gp.Factors{}
	}
	f := num.diag[b]
	dense, xsup := num.useDense(b, b), num.sym.snodesOf(b)
	switch {
	case dense:
		// A reduce feeding this kernel has already committed its panel into
		// red, so the one-live-panel rule of the pooled workspace holds.
		w.kind = trace.KindDenseRefresh
		num.denseHits.Add(1)
	case xsup != nil:
		w.kind = trace.KindSnodeKernel
		num.snHits.Add(1)
	}
	var err error
	switch {
	case w.mode == modeFactor:
		hint := 0
		if num.sym.est != nil {
			hint = num.sym.est.diagNnz[b]
		}
		if dense {
			err = gp.FactorDenseInto(f, m, num.opts.gpOptions(), w.ws)
		} else {
			err = gp.FactorInto(f, m, xsup, hint, num.opts.gpOptions(), w.ws)
		}
	case w.st != nil && b == w.leaf:
		b0, b1 := num.sym.blockRange(b)
		err = f.RefactorSelective(m, w.ws, w.st.colStamp[b0:b1], w.st.epoch, w.st.rerun[b0:b1])
	default:
		err = f.Refactor(m, w.ws)
	}
	if err != nil {
		return fmt.Errorf("core: nd %sdiag block %d: %w", sweepModes[w.mode].errTag, b, err)
	}
	return nil
}

// upperKernel computes or refreshes U_kj = L_kk⁻¹·P_k·Â_kj from the
// (reduced) block ahat. When both the kernel and the solving diagonal are
// dense-tagged every mode runs the dense TRSM of gp.DenseUpperRefactor over
// L's contiguous dense columns; otherwise gp.RefactorUpperBlock. A fresh
// sweep first shapes the block — structural fully dense, or the
// Gilbert–Peierls reach of every column (gp.UpperBlockPattern) — so fresh
// and refresh share one arithmetic.
func (w *ndLane) upperKernel(k, j int, ahat *sparse.CSC) {
	num := w.num
	f, dst := num.diag[k], num.upper[k][j]
	dense := num.useDense(k, j) && num.useDense(k, k)
	if dense {
		w.kind = trace.KindDenseRefresh
		num.denseHits.Add(1)
	}
	if w.mode == modeFactor {
		if dense {
			dst = sparse.FillDense(dst, f.N, ahat.N, nil)
		} else {
			dst = f.UpperBlockPattern(dst, ahat, w.ws)
		}
		num.upper[k][j] = dst
	}
	if dense {
		f.DenseUpperRefactor(dst, ahat)
	} else {
		f.RefactorUpperBlock(dst, ahat, w.ws)
	}
}

// lowerKernel computes or refreshes L_ij solving X·U_jj = Â_ij:
// gp.DenseLowerRefactor over a fully dense block when both the kernel and
// the diagonal are dense-tagged, gp.RefactorLowerBlock otherwise. A fresh
// sweep first shapes the block (fully dense, or lowerPattern's union).
func (w *ndLane) lowerKernel(i, j int, ahat *sparse.CSC) {
	num := w.num
	f, dst := num.diag[j], num.lower[i][j]
	dense := num.useDense(i, j) && num.useDense(j, j)
	if dense {
		w.kind = trace.KindDenseRefresh
		num.denseHits.Add(1)
	}
	if w.mode == modeFactor {
		if dense {
			dst = sparse.FillDense(dst, ahat.M, ahat.N, nil)
		} else {
			dst = w.lowerPattern(dst, ahat, f.U)
		}
		num.lower[i][j] = dst
	}
	if dense {
		f.DenseLowerRefactor(dst, ahat)
	} else {
		f.RefactorLowerBlock(dst, ahat, w.acc)
	}
}

// reduceKernel assembles the reduced block Â_ij = A_ij − Σ L·U feeding
// kernel (i, j) into red[i][j]: the dense accumulation panel for
// dense-tagged targets (no occupancy marks, no pattern sort; the fully
// dense red block is recycled in place by every mode), otherwise
// reduceBlockInto over the structural pattern a fresh sweep first shapes
// (reducePattern). With no contributions the input block passes through
// untouched.
func (w *ndLane) reduceKernel(i, j int, lows, ups []*sparse.CSC) *sparse.CSC {
	num := w.num
	a0 := num.a[i][j]
	if len(lows) == 0 {
		return a0
	}
	if num.useDense(i, j) {
		w.kind = trace.KindDenseRefresh
		num.denseHits.Add(1)
		num.red[i][j] = reduceBlockDense(a0, lows, ups, num.red[i][j], w.ws)
		return num.red[i][j]
	}
	if w.mode == modeFactor {
		num.red[i][j] = w.reducePattern(num.red[i][j], a0, lows, ups)
	}
	reduceBlockInto(num.red[i][j], a0, lows, ups, w.acc)
	return num.red[i][j]
}

// lowerPattern shapes dst as the pattern of X solving X·U = B: column c is
// the union of B(:,c)'s rows and the rows of X(:,t) for every t in U(:,c)'s
// strictly upper pattern. The values are left for gp.RefactorLowerBlock to
// fill.
func (w *ndLane) lowerPattern(dst, b, u *sparse.CSC) *sparse.CSC {
	dst = resetBlock(dst, b.M, b.N)
	for c := 0; c < b.N; c++ {
		w.tag++
		p0 := len(dst.Rowidx)
		w.markUnion(dst, b, c)
		for _, t := range u.Rowidx[u.Colptr[c] : u.Colptr[c+1]-1] {
			if len(dst.Rowidx)-p0 == dst.M {
				break // every row is in already
			}
			w.markUnion(dst, dst, t)
		}
		w.endColumn(dst, c, p0)
	}
	return finishBlock(dst)
}

// reducePattern shapes dst as the pattern of A0 − Σ_t lows[t]·ups[t]:
// column c is the union of A0(:,c)'s rows and the rows of lows[t](:,k) for
// every k in ups[t](:,c). The values are left for reduceBlockInto to fill.
func (w *ndLane) reducePattern(dst, a0 *sparse.CSC, lows, ups []*sparse.CSC) *sparse.CSC {
	dst = resetBlock(dst, a0.M, a0.N)
	for c := 0; c < a0.N; c++ {
		w.tag++
		p0 := len(dst.Rowidx)
		w.markUnion(dst, a0, c)
		for t, up := range ups {
			for _, k := range up.Rowidx[up.Colptr[c]:up.Colptr[c+1]] {
				if len(dst.Rowidx)-p0 == dst.M {
					break // every row is in already
				}
				w.markUnion(dst, lows[t], k)
			}
		}
		w.endColumn(dst, c, p0)
	}
	return finishBlock(dst)
}

// markUnion appends to dst's open column the rows of b(:,c) not yet marked
// under the lane's current tag. b may be dst itself (a finished column).
func (w *ndLane) markUnion(dst, b *sparse.CSC, c int) {
	for _, i := range b.Rowidx[b.Colptr[c]:b.Colptr[c+1]] {
		if w.mark[i] != w.tag {
			w.mark[i] = w.tag
			dst.Rowidx = append(dst.Rowidx, i)
		}
	}
}

// endColumn sorts the rows collected for column c since position p0 and
// closes the column. A column that holds an eighth of the block's rows or
// more is rewritten from a scan of the marks instead, sorted for free.
func (w *ndLane) endColumn(dst *sparse.CSC, c, p0 int) {
	seg := dst.Rowidx[p0:]
	if len(seg)*8 >= dst.M {
		q := 0
		for i, t := range w.mark[:dst.M] {
			if t == w.tag {
				seg[q] = i
				q++
			}
		}
	} else {
		slices.Sort(seg)
	}
	dst.Colptr[c+1] = len(dst.Rowidx)
}

// resetBlock returns recycled storage (nil allocates) emptied to an m×n
// block for a pattern pass; finishBlock sizes its values to the pattern,
// left unspecified for the refresh kernel that writes every entry.
func resetBlock(dst *sparse.CSC, m, n int) *sparse.CSC {
	if dst == nil {
		return sparse.NewCSC(m, n, 0)
	}
	dst.ResetShape(m, n)
	return dst
}

func finishBlock(dst *sparse.CSC) *sparse.CSC {
	dst.Values = slices.Grow(dst.Values, len(dst.Rowidx))[:len(dst.Rowidx)]
	return dst
}

// reduceBlockDense assembles Â = A0 − Σ_t lows[t]·ups[t] through a dense
// accumulation panel — no occupancy marks, no pattern collection, no sort —
// and emits a structural fully dense block into recycle's storage (nil
// allocates). The contribution order per element matches reduceBlockInto
// exactly (A0 first, then the pairs in order, each upper
// entry scattering its lower column), so the in-place refresh sweeps
// reproduce dense-reduced blocks bitwise. Contributor columns that are
// themselves fully dense (dense-built factor blocks) collapse to contiguous
// axpys — the blocked rank-k update of the dense layer.
func reduceBlockDense(a0 *sparse.CSC, lows, ups []*sparse.CSC, recycle *sparse.CSC, ws *gp.Workspace) *sparse.CSC {
	m, n := a0.M, a0.N
	panel := ws.Panel(m, n)
	for c := 0; c < n; c++ {
		col := panel.Col(c)
		for p := a0.Colptr[c]; p < a0.Colptr[c+1]; p++ {
			col[a0.Rowidx[p]] += a0.Values[p]
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
						col[i] -= float64(v * ukc)
					}
					continue
				}
				for qi, i := range rows {
					col[i] -= float64(vals[qi] * ukc)
				}
			}
		}
	}
	return sparse.FillDense(recycle, m, n, panel.Data)
}

// reduceBlockInto fills dst = A0 − Σ_t lows[t]·ups[t] over dst's
// structural pattern (reducePattern's union of the same contributing
// patterns), so every touched accumulator index lies in dst's column
// pattern and comes back clean: the fresh build and every refresh of a
// sparse reduced block. Zero allocation.
func reduceBlockInto(dst, a0 *sparse.CSC, lows, ups []*sparse.CSC, acc []float64) {
	for c := 0; c < dst.N; c++ {
		for p := a0.Colptr[c]; p < a0.Colptr[c+1]; p++ {
			acc[a0.Rowidx[p]] += a0.Values[p]
		}
		for t := range lows {
			lo, up := lows[t], ups[t]
			for p := up.Colptr[c]; p < up.Colptr[c+1]; p++ {
				k := up.Rowidx[p]
				ukc := up.Values[p]
				if ukc == 0 {
					continue // a zero multiplier contributes nothing
				}
				for q := lo.Colptr[k]; q < lo.Colptr[k+1]; q++ {
					acc[lo.Rowidx[q]] -= float64(lo.Values[q] * ukc)
				}
			}
		}
		for p := dst.Colptr[c]; p < dst.Colptr[c+1]; p++ {
			i := dst.Rowidx[p]
			dst.Values[p] = acc[i]
			acc[i] = 0
		}
	}
}

func ancestorAtHeight(s *ndSym, leaf, h int) int {
	b := leaf
	for s.height[b] < h {
		b = s.tree.Parent[b]
	}
	return b
}

// ndSolve applies the 2D block forward/backward substitution to y, the
// right-hand side in the block's pivot order, in place: every tree block's
// rows already sit in the order its pivots chose, so each diagonal solve
// runs in place, and a lower coupling reaches its ancestor's pivot-order
// rows through the ancestor's Pinv.
func (num *ndNum) ndSolve(y []float64) {
	s := num.sym
	nb := s.nb
	// Forward: block columns ascending (postorder = matrix order).
	for k := 0; k < nb; k++ {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		num.diag[k].LSolve(y[c0:c1])
		// Subtract this block's influence on ancestor rows.
		for _, i := range s.ancestors[k] {
			lb := num.lower[i][k]
			if lb == nil {
				continue
			}
			r0, _ := s.blockRange(i)
			yi, pinv := y[r0:], num.diag[i].Pinv
			lp, li, lx := lb.Colptr, lb.Rowidx, lb.Values
			for c, xc := range y[c0 : c0+lb.N] {
				if xc == 0 {
					continue
				}
				rows, vals := li[lp[c]:lp[c+1]], lx[lp[c]:lp[c+1]]
				vals = vals[:len(rows)]
				for q, r := range rows {
					yi[pinv[r]] -= float64(vals[q] * xc)
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
			yk, up, ui, ux := y[c0:], ub.Colptr, ub.Rowidx, ub.Values
			for c, xc := range y[j0 : j0+ub.N] {
				if xc == 0 {
					continue
				}
				rows, vals := ui[up[c]:up[c+1]], ux[up[c]:up[c+1]]
				vals = vals[:len(rows)]
				for q, r := range rows {
					yk[r] -= float64(vals[q] * xc)
				}
			}
		}
		num.diag[k].USolve(y[c0:c1])
	}
}

// ndSolvePanel is ndSolve over a row-interleaved panel (y holds the block's
// pivot-order rows for all gp.PanelLanes right-hand sides): the same block
// order, every diagonal factor and coupling block traversed once for the
// eight lanes.
func (num *ndNum) ndSolvePanel(y []gp.PanelRow) {
	s := num.sym
	nb := s.nb
	for k := 0; k < nb; k++ {
		c0, c1 := s.blockRange(k)
		if c0 == c1 {
			continue
		}
		num.diag[k].LSolvePanel(y[c0:c1])
		for _, i := range s.ancestors[k] {
			if lb := num.lower[i][k]; lb != nil {
				r0, _ := s.blockRange(i)
				couplePanel(y[r0:], lb, num.diag[i].Pinv, y[c0:c1])
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
				couplePanel(y[c0:], ub, nil, y[j0:])
			}
		}
		num.diag[k].USolvePanel(y[c0:c1])
	}
}

// couplePanel subtracts coupling block b times the solved rows x from y,
// reaching b's rows through pos when it is non-nil.
func couplePanel(y []gp.PanelRow, b *sparse.CSC, pos []int, x []gp.PanelRow) {
	for c := 0; c < b.N; c++ {
		if xc := &x[c]; !xc.IsZero() {
			p0, p1 := b.Colptr[c], b.Colptr[c+1]
			if pos == nil {
				gp.PanelAxpy(y, b.Rowidx[p0:p1], b.Values[p0:p1], xc)
			} else {
				gp.PanelAxpyVia(y, pos, b.Rowidx[p0:p1], b.Values[p0:p1], xc)
			}
		}
	}
}

// ndSolveT applies the transposed 2D block substitution to y in place — the
// A⁻ᵀ application the condition estimator needs — and leaves the solution
// in the block's pivot order, as ndSolve takes its right-hand side. With the
// block hierarchy factored as B = L̂Û (L̂ₖₖ = Pₖᵀ Lₖ), Bᵀ x = y splits into
// an ascending Ûᵀ sweep (transpose-lower) and a descending L̂ᵀ sweep
// (transpose-upper). Couplings mirror ndSolve's exactly, as dot products
// instead of scattered updates: a lower coupling reads its ancestor's
// pivot-order rows through the ancestor's Pinv.
func (num *ndNum) ndSolveT(y []float64) {
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
					sum += float64(ub.Values[p] * y[c0+ub.Rowidx[p]])
				}
				y[j0+c] -= sum
			}
		}
	}
	// Backward: L̂ᵀ is block upper triangular, descending block columns.
	// Pull the transposed lower couplings from the already-solved ancestors,
	// then solve Lₖᵀ in place.
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
			yi, pinv := y[r0:], num.diag[i].Pinv
			for c := 0; c < lb.N; c++ {
				sum := 0.0
				for p := lb.Colptr[c]; p < lb.Colptr[c+1]; p++ {
					sum += float64(lb.Values[p] * yi[pinv[lb.Rowidx[p]]])
				}
				y[c0+c] -= sum
			}
		}
		num.diag[k].LSolveT(y[c0:c1])
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
