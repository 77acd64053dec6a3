package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/trace"
)

// incState is the change-tracking side of the incremental refactorization
// subsystem, built lazily on the first partial refresh (a Refactor that
// finds fewer than half the columns changed, or a RefactorPartial) and
// reused forever: epoch-stamped dirty sets at every granularity the sweep
// skips work at — coarse BTF blocks, the dirty columns inside a diagonal
// block (gp.RefactorSelective recomputes their dependency closure alone),
// and the (row-node, column-node) pairs of each fine-ND block's 2D
// hierarchy. All marking is O(size of the change set), and a steady state
// allocates nothing.
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
// Refactor or RefactorPartial — whichever last ran, including a failed
// attempt); listing extra unchanged columns is allowed and merely wastes
// work. The sparsity pattern must match the analyzed one: dimensions, the
// column pointers and every changed column's rows are verified, while
// unchanged columns are trusted. Unlike Refactor it runs no compare pass
// over the whole matrix: it is the path for callers that know their change
// set.
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
		// from per-column marking. Both degrade to the flat full sweep.
		if err := pl.checkPattern(a); err != nil {
			return err
		}
		return num.fullSweep(ctx, modeRefresh, a)
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
	for _, j := range changed {
		num.diffColumn(a, int(sym.colPos[j]), true)
	}
	return num.partialSweep(ctx)
}

// changedColumns compares a's values bit for bit with the values permuted
// storage holds, in one flat pass through the permutation map, and lists the
// permuted columns holding a differing entry, ascending. Once half the
// columns are listed it stops comparing and reports false: the caller then
// gathers everything and runs the full sweep. Bitwise comparison makes a
// +0 ↔ −0 restamp a change and a NaN restamped with the same bits none.
func (num *Numeric) changedColumns(a *sparse.CSC) ([]int32, bool) {
	pm, colptr := num.Sym.plan.permMap, num.Perm.Colptr
	pv, av := num.Perm.Values[:len(pm)], a.Values
	n := num.Sym.N
	out := num.changed[:0]
	// k trails the walk: the column of the last differing entry.
	k := 0
	for t := 0; t < len(pm); {
		if math.Float64bits(pv[t]) != math.Float64bits(av[pm[t]]) {
			for colptr[k+1] <= t {
				k++
			}
			out = append(out, int32(k))
			if len(out)*2 >= n {
				break
			}
			// The rest of column k need not be compared.
			t = colptr[k+1]
			continue
		}
		// Skip equal runs eight entries per branch; ^ and | share a
		// precedence level in Go, so every XOR is parenthesized.
		for t++; t+8 <= len(pm); t += 8 {
			m, v := pm[t:t+8:t+8], pv[t:t+8:t+8]
			if (math.Float64bits(v[0])^math.Float64bits(av[m[0]]))|
				(math.Float64bits(v[1])^math.Float64bits(av[m[1]]))|
				(math.Float64bits(v[2])^math.Float64bits(av[m[2]]))|
				(math.Float64bits(v[3])^math.Float64bits(av[m[3]]))|
				(math.Float64bits(v[4])^math.Float64bits(av[m[4]]))|
				(math.Float64bits(v[5])^math.Float64bits(av[m[5]]))|
				(math.Float64bits(v[6])^math.Float64bits(av[m[6]]))|
				(math.Float64bits(v[7])^math.Float64bits(av[m[7]])) != 0 {
				break
			}
		}
	}
	num.changed = out
	return out, len(out)*2 < n
}

// markChanged writes the differing entries of the listed permuted columns
// into permuted storage and marks the dirty structures they reach.
func (num *Numeric) markChanged(a *sparse.CSC, cols []int32) {
	num.ensureIncremental()
	inc := num.inc
	inc.epoch++
	inc.dirty = 0
	for _, k := range cols {
		num.diffColumn(a, int(k), false)
	}
}

// partialSweep runs the sweep over the blocks the marking phase dirtied.
func (num *Numeric) partialSweep(ctx context.Context) error {
	inc := num.inc
	defer num.endTrace(num.Sym.Opts.Trace.BeginSweep(trace.PhasePartial))
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
