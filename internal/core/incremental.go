package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/sparse"
	"repro/internal/trace"
)

// incState is the change-tracking side of the incremental refactorization
// subsystem, built lazily on the first RefactorPartial/RefactorAuto call
// and reused forever: epoch-stamped dirty sets at every granularity the
// sweep skips work at — coarse BTF blocks, the dirty columns inside a
// diagonal block (gp.RefactorSelective recomputes their dependency
// closure alone), and the (row-node, column-node) pairs of each fine-ND
// block's 2D hierarchy — plus RefactorAuto's value snapshot. All marking
// is O(size of the change set), and a steady state allocates nothing.
type incState struct {
	// epoch stamps the current partial sweep; a dirty mark is live only
	// when its stamp equals the epoch, so resetting the dirty sets between
	// sweeps costs one increment.
	epoch uint64
	// blkStamp[blk] == epoch marks coarse block blk dirty this sweep.
	blkStamp []uint64
	// nd[blk] is the fine-grained dirty state of fine-ND blocks (nil for
	// small blocks).
	nd []*ndIncState
	// colStamp[k] == epoch marks permuted column k as carrying an in-block
	// change; rerun[k] is the per-sweep scratch the selective
	// Gilbert–Peierls refresh records its column closure in. Both are
	// indexed by permuted position, so each diagonal block owns a disjoint
	// slice and concurrent block refreshes never share state.
	colStamp []uint64
	rerun    []bool
	// snap is RefactorAuto's copy, in the caller's (original) entry order,
	// of the values permuted storage holds, so change discovery is one
	// sequential compare against the incoming values. Built by the first
	// RefactorAuto; snapOK is false whenever another writer (a full sweep's
	// gather, RefactorPartial's column gathers, an injected NaN) may have
	// made permuted storage differ from it, and the next RefactorAuto then
	// rebuilds it once from permuted storage.
	snap   []float64
	snapOK bool
	// changed is the reusable list of original columns the compare found.
	changed []int
	// dirty counts the coarse blocks marked this epoch.
	dirty int
}

// ndIncState tracks dirtiness inside one fine-ND block at tree-node
// granularity: pairStamp marks the (row-node, column-node) input blocks a
// change set touches, and chg is the per-sweep materialized changed-kernel
// matrix the dependency recurrences of computeChanged fill from those
// marks.
type ndIncState struct {
	// nodeOf[c] is the tree node whose index range contains block-local
	// row/column c; colOf[c] is c's column index local to that node.
	nodeOf []int
	colOf  []int
	// pairStamp[i*nb+j] == epoch marks input block (i, j) as holding
	// changed values.
	pairStamp []uint64
	// chg[i*nb+j] reports whether kernel (i, j) must rerun this sweep.
	chg []bool
	// nodeStamp[v] == epoch marks node v's column range as touched;
	// nodeFirst[v] is then the smallest changed node-local column, and
	// first[v] its per-sweep resolution (0 for untouched nodes) — the
	// suffix starting point the leaf off-diagonal kernels refactor from.
	nodeStamp []uint64
	nodeFirst []int
	first     []int
	// colStamp/rerun are this coarse block's slices of the incState arrays
	// (block-local indexing), and epoch the sweep's stamp — what the leaf
	// diagonal kernels need for the selective per-column refresh.
	colStamp []uint64
	rerun    []bool
	epoch    uint64
}

// has reports whether coarse block blk is dirty this sweep; a nil mask is
// the all-dirty mask of the full sweeps.
func (inc *incState) has(blk int) bool {
	return inc == nil || inc.blkStamp[blk] == inc.epoch
}

// hasAny reports whether any of blks is dirty.
func (inc *incState) hasAny(blks []int) bool {
	for _, blk := range blks {
		if inc.has(blk) {
			return true
		}
	}
	return false
}

// ensureIncremental builds the change-tracking state on first use.
func (num *Numeric) ensureIncremental() {
	if num.inc != nil {
		return
	}
	sym := num.Sym
	nblocks := sym.NumBlocks()
	inc := &incState{
		blkStamp: make([]uint64, nblocks),
		nd:       make([]*ndIncState, nblocks),
		colStamp: make([]uint64, sym.N),
		rerun:    make([]bool, sym.N),
	}
	for blk := 0; blk < nblocks; blk++ {
		if sym.kind[blk] == blockND {
			ns := sym.ndsym[blk]
			bs := sym.BlockPtr[blk+1] - sym.BlockPtr[blk]
			st := &ndIncState{
				nodeOf:    make([]int, bs),
				colOf:     make([]int, bs),
				pairStamp: make([]uint64, ns.nb*ns.nb),
				chg:       make([]bool, ns.nb*ns.nb),
				nodeStamp: make([]uint64, ns.nb),
				nodeFirst: make([]int, ns.nb),
				first:     make([]int, ns.nb),
				colStamp:  inc.colStamp[sym.BlockPtr[blk]:sym.BlockPtr[blk+1]],
				rerun:     inc.rerun[sym.BlockPtr[blk]:sym.BlockPtr[blk+1]],
			}
			for b := 0; b < ns.nb; b++ {
				b0, b1 := ns.blockRange(b)
				for c := b0; c < b1; c++ {
					st.nodeOf[c] = b
					st.colOf[c] = c - b0
				}
			}
			inc.nd[blk] = st
		}
	}
	num.inc = inc
}

// staleSnapshot records that permuted storage was written behind
// RefactorAuto's snapshot.
func (num *Numeric) staleSnapshot() {
	if num.inc != nil {
		num.inc.snapOK = false
	}
}

// RefactorPartial is Refactor for a matrix that differs from the one the
// factorization currently holds only in the listed original-index columns:
// the change set is scattered through the cached entry maps, the dirty
// coarse blocks (and, inside fine-ND blocks, the dirty kernels of the 2D
// hierarchy) are derived from it, and every clean block or kernel keeps
// its factored values — inside a dirty fine-ND block the skipped kernels'
// completion flags are pre-armed, so the rerun kernels synchronize
// point-to-point and fall back per block exactly like Refactor, while the
// sweep touches only what the perturbation reaches. Columns not listed must
// hold values identical to the previous refresh (Factor, FactorInto,
// Refactor, RefactorPartial or RefactorAuto — whichever last ran,
// including a failed attempt); listing extra unchanged columns is allowed
// and merely wastes work. The sparsity pattern must match the analyzed
// one: dimensions, the column pointers and every changed column's rows are
// verified, while unchanged columns are trusted (the full O(nnz)
// verification of Refactor would dwarf a small change set).
//
// The exclusion and error contracts are Refactor's: no concurrent solves,
// and on error the values are unspecified until a subsequent refresh
// succeeds (a failed sweep is remembered, so the next incremental call
// transparently runs a full refresh to re-establish a consistent state).
func (num *Numeric) RefactorPartial(a *sparse.CSC, changed []int) error {
	return num.RefactorPartialCtx(context.Background(), a, changed)
}

// RefactorPartialCtx is RefactorPartial with cooperative cancellation: a
// fired ctx aborts the dirty-block sweep at the next block boundary and
// returns ErrCanceled or ErrDeadlineExceeded, leaving the numeric poisoned
// but recoverable (the next refresh transparently runs a full recovery
// sweep). A ctx with a Done channel also arms the sweep monitor, as does
// Options.StallTimeout for stall detection.
func (num *Numeric) RefactorPartialCtx(ctx context.Context, a *sparse.CSC, changed []int) (err error) {
	if err := num.enter(ctx, a); err != nil {
		return err
	}
	// A panic during marking poisons the numeric, so the next incremental
	// call runs a full recovery refresh.
	defer num.recoverSerial(&err)
	sym, pl := num.Sym, num.Sym.plan
	// An out-of-range column is rejected whatever the set's size, before
	// the near-total degrade below could accept it.
	for _, j := range changed {
		if j < 0 || j >= sym.N {
			return fmt.Errorf("core: RefactorPartial: column %d out of range", j)
		}
	}
	if num.incPoisoned || len(changed)*2 >= sym.N {
		// A prior failed sweep left unspecified values behind, so the partial
		// contract cannot hold; and a near-total change set gains nothing
		// from per-column marking. Both degrade to the flat full sweep (which
		// also keeps the 100%-changed case at full-Refactor speed).
		return num.RefactorCtx(ctx, a)
	}
	if err := pl.checkColptr(a); err != nil {
		return err
	}
	// Validate the whole change set before gathering anything: a rejected
	// column must not leave earlier columns' values already scattered into
	// resident storage (that would silently break the next sweep's
	// unchanged-columns contract without the poison flag ever being set).
	num.ensureIncremental()
	inc := num.inc
	for _, j := range changed {
		k := sym.colPos[j]
		p0, p1 := num.Perm.Colptr[k], num.Perm.Colptr[k+1]
		for t := p0; t < p1; t++ {
			if s := pl.permMap[t]; a.Rowidx[s] != pl.rowidx[s] {
				return fmt.Errorf("core: refactor pattern mismatch in column %d", j)
			}
		}
	}
	inc.epoch++
	inc.dirty = 0
	inc.snapOK = false
	for _, j := range changed {
		num.diffColumn(a, int(sym.colPos[j]), true)
	}
	return num.partialSweep(ctx)
}

// RefactorAuto is Refactor with automatic change discovery: the incoming
// values are compared bit for bit, in one sequential pass, with a snapshot
// of the values the factorization holds; only the columns that differ are
// scattered into permuted storage and diffed entry by entry there, and the
// sweep then refreshes only the blocks those entries reach — callers that
// cannot (or do not want to) track their own change sets get the
// incremental fast path transparently, for a compare pass over the values
// plus work proportional to the change. When at least half the columns
// changed it runs the flat full sweep instead, which keeps a fully-changed
// matrix at full-Refactor cost. Bitwise comparison makes a +0 ↔ −0
// restamp a change and a NaN restamped with the same bits none.
//
// Exclusion and error contracts are Refactor's.
func (num *Numeric) RefactorAuto(a *sparse.CSC) error {
	return num.RefactorAutoCtx(context.Background(), a)
}

// RefactorAutoCtx is RefactorAuto with cooperative cancellation and stall
// monitoring; the contract matches RefactorPartialCtx.
func (num *Numeric) RefactorAutoCtx(ctx context.Context, a *sparse.CSC) (err error) {
	if err := num.enter(ctx, a); err != nil {
		return err
	}
	defer num.recoverSerial(&err)
	if num.incPoisoned {
		return num.RefactorCtx(ctx, a)
	}
	if err := num.Sym.plan.checkPattern(a); err != nil {
		return err
	}
	num.ensureIncremental()
	inc := num.inc
	num.syncSnapshot()
	changed := inc.diffSnapshot(a)
	if len(changed)*2 >= num.Sym.N {
		// The compare already copied a into the snapshot, and the full
		// sweep's gather leaves permuted storage agreeing with it.
		err := num.fullSweep(ctx, modeRefresh, a)
		inc.snapOK = true
		return err
	}
	inc.epoch++
	inc.dirty = 0
	for _, j := range changed {
		num.diffColumn(a, int(num.Sym.colPos[j]), false)
	}
	return num.partialSweep(ctx)
}

// syncSnapshot makes RefactorAuto's snapshot equal to the values permuted
// storage holds, allocating it on first use and regathering it through the
// permutation map when a writer has marked it stale.
func (num *Numeric) syncSnapshot() {
	inc := num.inc
	if inc.snapOK {
		return
	}
	pm, pv := num.Sym.plan.permMap, num.Perm.Values
	if inc.snap == nil {
		inc.snap = make([]float64, len(pm))
	}
	for t, s := range pm {
		inc.snap[s] = pv[t]
	}
	inc.snapOK = true
}

// diffSnapshot compares a's values with the snapshot bit for bit, eight
// entries per branch, copies every differing value into the snapshot, and
// returns the original columns holding one, ascending. It stops listing
// columns once half of them changed: the caller then sweeps everything.
func (inc *incState) diffSnapshot(a *sparse.CSC) []int {
	sv, colptr := inc.snap, a.Colptr
	av := a.Values[:len(sv)]
	out := inc.changed[:0]
	// last is the column listed last and end its end: entries before end
	// belong to columns already listed.
	last, end := -1, 0
	// slow records the differing entries of [t0, t1).
	slow := func(t0, t1 int) {
		for t := t0; t < t1; t++ {
			if math.Float64bits(sv[t]) == math.Float64bits(av[t]) {
				continue
			}
			sv[t] = av[t]
			if t < end || len(out)*2 >= a.N {
				continue
			}
			idx, _ := slices.BinarySearch(colptr[last+1:], t+1)
			last += idx
			end = colptr[last+1]
			out = append(out, last)
		}
	}
	t := 0
	for ; t+8 <= len(sv); t += 8 {
		s, v := sv[t:t+8:t+8], av[t:t+8:t+8]
		// ^ and | share a precedence level in Go: every XOR is parenthesized.
		if (math.Float64bits(s[0])^math.Float64bits(v[0]))|
			(math.Float64bits(s[1])^math.Float64bits(v[1]))|
			(math.Float64bits(s[2])^math.Float64bits(v[2]))|
			(math.Float64bits(s[3])^math.Float64bits(v[3]))|
			(math.Float64bits(s[4])^math.Float64bits(v[4]))|
			(math.Float64bits(s[5])^math.Float64bits(v[5]))|
			(math.Float64bits(s[6])^math.Float64bits(v[6]))|
			(math.Float64bits(s[7])^math.Float64bits(v[7])) != 0 {
			slow(t, t+8)
		}
	}
	slow(t, len(sv))
	inc.changed = out
	return out
}

// partialSweep runs the sweep over the blocks the marking phase dirtied.
func (num *Numeric) partialSweep(ctx context.Context) error {
	inc := num.inc
	sw := num.Sym.Opts.Trace.BeginSweep(trace.PhasePartial)
	defer sw.End()
	num.lastDirty = inc.dirty
	num.dirtyTotal += int64(inc.dirty)
	return num.runSweep(ctx, modePartial, inc)
}

// markDirtyBlock records coarse block blk as dirty this epoch.
func (num *Numeric) markDirtyBlock(blk int) {
	inc := num.inc
	if inc.blkStamp[blk] != inc.epoch {
		inc.blkStamp[blk] = inc.epoch
		inc.dirty++
	}
}

// markNDNode records a change in node jn at node-local column c.
func (st *ndIncState) markNDNode(jn, c int, epoch uint64) {
	if st.nodeStamp[jn] != epoch {
		st.nodeStamp[jn] = epoch
		st.nodeFirst[jn] = c
	} else if c < st.nodeFirst[jn] {
		st.nodeFirst[jn] = c
	}
}

// diffColumn scatters permuted column k of a into permuted storage entry by
// entry, comparing bit for bit against the resident values (all counts
// every entry as changed: the explicit change-set path trusts its caller).
// Changes inside the diagonal block (rows BlockPtr[blk] ≤ r <
// BlockPtr[blk+1]) mark the dirty structures, and the column is then
// re-gathered into the block's input storage; changes to coarse
// off-diagonal entries only update permuted storage, which solves read
// them from, and never dirty a factor.
func (num *Numeric) diffColumn(a *sparse.CSC, k int, all bool) {
	sym, pl, inc := num.Sym, num.Sym.plan, num.inc
	perm := num.Perm
	p0, p1 := perm.Colptr[k], perm.Colptr[k+1]
	blk := sym.BlockOf(k)
	r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
	nd := sym.kind[blk] == blockND
	var st *ndIncState
	var nb, jn int
	if nd {
		st = inc.nd[blk]
		nb = sym.ndsym[blk].nb
		jn = st.nodeOf[k-r0]
	}
	av, pv := a.Values, perm.Values
	inBlock := false
	for t := p0; t < p1; t++ {
		v := av[pl.permMap[t]]
		if !all && math.Float64bits(pv[t]) == math.Float64bits(v) {
			continue
		}
		pv[t] = v
		r := perm.Rowidx[t]
		if r < r0 || r >= r1 {
			continue
		}
		inBlock = true
		if nd {
			st.pairStamp[st.nodeOf[r-r0]*nb+jn] = inc.epoch
		}
	}
	if !inBlock {
		return
	}
	inc.colStamp[k] = inc.epoch
	num.markDirtyBlock(blk)
	if nd {
		st.markNDNode(jn, st.colOf[k-r0], inc.epoch)
	}
	num.regatherBlockColumn(blk, k)
}

// regatherBlockColumn refreshes permuted column k's slice of coarse block
// blk's input storage from permuted storage, through the forward entry maps
// the full sweeps gather with: the small block's column, or column k's
// column of every input block (i, node of k) of the 2D hierarchy.
func (num *Numeric) regatherBlockColumn(blk, k int) {
	sym, perm := num.Sym, num.Perm
	c := k - sym.BlockPtr[blk]
	if sym.kind[blk] != blockND {
		sub := num.smallIn[blk]
		sparse.GatherRange(sub, perm, num.Sym.plan.smallSrc[blk], sub.Colptr[c], sub.Colptr[c+1])
		return
	}
	st, ndn := num.inc.nd[blk], num.nd[blk]
	jn, col := st.nodeOf[c], st.colOf[c]
	for i := range ndn.a {
		if d := ndn.a[i][jn]; d != nil {
			sparse.GatherRange(d, perm, ndn.aSrc[i][jn], d.Colptr[col], d.Colptr[col+1])
		}
	}
}

// computeChanged materializes st.chg, the changed-kernel matrix of one
// fine-ND block, from the epoch's dirty input pairs by walking the 2D
// sweep's dependency structure in schedule order: a kernel must rerun when
// its own input block changed, when a factor it consumes was itself rerun,
// or when any (lower, upper) pair feeding its reduction changed. This is
// the fine-grained form of "a dirty separator column dirties its ancestors
// up the ND tree": dirtiness propagates upward exactly along the paper's
// dependency tree, and nothing else reruns.
func (ndn *ndNum) computeChanged(st *ndIncState, epoch uint64) {
	s := ndn.sym
	nb := s.nb
	chg := st.chg
	for i := range chg {
		chg[i] = false
	}
	pair := func(i, j int) bool { return st.pairStamp[i*nb+j] == epoch }
	st.epoch = epoch
	for v := range st.first {
		if st.nodeStamp[v] == epoch {
			st.first[v] = st.nodeFirst[v]
		} else {
			st.first[v] = 0
		}
	}
	for j := 0; j < nb; j++ {
		// Upper targets U_kp,j for descendants kp of j, in schedule order:
		// rerun when the input block changed, the solving diagonal factor
		// LU_kp,kp was rerun, or a reduction term from subtree(kp) changed.
		for kp := s.subLo[j]; kp < j; kp++ {
			c := pair(kp, j) || chg[kp*nb+kp]
			for k2 := s.subLo[kp]; k2 < kp && !c; k2++ {
				c = chg[kp*nb+k2] || chg[k2*nb+j]
			}
			chg[kp*nb+j] = c
		}
		// The diagonal LU_jj: input block or any reduction term.
		c := pair(j, j)
		for k2 := s.subLo[j]; k2 < j && !c; k2++ {
			c = chg[j*nb+k2] || chg[k2*nb+j]
		}
		chg[j*nb+j] = c
		// Lower targets L_ij for ancestors i of j: input block, the (just
		// decided) diagonal LU_jj, or any reduction term.
		for _, i := range s.ancestors[j] {
			c := pair(i, j) || chg[j*nb+j]
			for k2 := s.subLo[j]; k2 < j && !c; k2++ {
				c = chg[i*nb+k2] || chg[k2*nb+j]
			}
			chg[i*nb+j] = c
		}
	}
}
