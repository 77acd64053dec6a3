package gp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// This file adds true supernodes to the Gilbert–Peierls kernel, the
// SuperLU idea (Demmel, Eisenstat, Gilbert, Li, Liu): consecutive columns
// whose factor patterns nest — detected from the column elimination tree by
// etree.RelaxedSupernodes — are factored and refreshed together through one
// blocked dense panel instead of column at a time. The fresh factor wins
// for blocks at moderate density (0.1–0.2): too sparse for the fully dense
// panel LU of dense_feed.go, but with enough pattern overlap that
// per-column scatter, DFS and sort bookkeeping dominates the arithmetic.
//
// The same-pattern refresh of a wide supernode has two outside-update
// strategies (the updates from columns left of the supernode, which is
// where the fill-heavy classes spend their refresh):
//   - column at a time (outsideColumns): each target column replays its
//     U pattern's source columns through the dense accumulator, so every
//     L(:,j) is streamed once per target column;
//   - supernode–panel (outsideBlocked, the SuperLU shape): up to
//     snTileCols target columns are gathered into one dense block over the
//     sorted union of their outside rows, and each source is applied to the
//     whole tile — a narrow source four target columns per pass over
//     L(:,j), the trailing run of a wide source as an in-source triangle
//     solve followed by a register-tiled product over its shared below
//     rows, two target columns at a time.
//
// The choice is pattern-only and fixed when FactorSupernodalInto emits the
// pattern: a supernode refreshes blocked when its outside-U density
// (stored outside entries over w × outside-row union) reaches
// snBlockedDensity; sparser ones pay more for the union and the block
// scan than the reuse saves. Both strategies are bitwise identical: every
// element receives exactly the updates t -= l·u of the column kernel, one
// at a time in ascending source column, skipping the same zero
// multipliers — the register tiles only keep the running value in a
// register between them, nothing is summed separately or reassociated.
//
// Every refresh loop that runs along contiguous memory has an AVX2 kernel
// (snode_amd64.s), selected by hasAVX2 like the panel sweeps: the wide
// source's below product (tile42 as 8×2 and 4×2 register tiles, tile41 as
// 8×1 and 4×1; the last rows of either stay in the Go loop), the in-source
// triangle and eliminatePanel's column update (axpy), and eliminatePanel's
// pivot-column scaling (divBy). They multiply, then subtract (or divide),
// never fused, so the bits are the Go loops' — which stay the fallback and
// the reference. applySingle's axpy4 stays Go: its rows go through slot
// to scattered addresses of the column-major tile, so it is bound by those
// stores, not by arithmetic a vector register could share; it needs a
// row-major tile layout first.
//
// Layout invariants of a supernodal factor over supernode S = [k0, k1),
// w = k1-k0 (on top of the standard sorted-factor invariants):
//   - U(:,k) for k = k0+c holds the column's own outside pattern
//     (positions < k0), then the *padded* supernode triangle k0..k-1 —
//     every triangle entry stored even when structurally absent, the few
//     explicit zeros relaxation buys wider panels with — then the pivot;
//   - every L(:,k) of the supernode stores the same below-supernode row
//     set (the union over the supernode's columns, padded with explicit
//     zeros), so after the final position remap and sort, all w columns
//     share one ascending below-row sequence. RefactorSupernodal leans on
//     this: panel row w+t of the refresh is the t-th below entry of every
//     column, no row map needed.
//
// Patterns stay value-independent (reach closures and their unions), so
// the refresh sweeps and the in-place refactorization contracts work on
// supernodal factors exactly as on plain ones.

// snScratch is the reusable staging state of FactorSupernodalInto: the
// orig-row → panel-row assignment of the current supernode (tag-guarded so
// resets are O(1)) and the per-column staged entries awaiting the panel.
type snScratch struct {
	tag      int
	rowTag   []int
	rowPanel []int
	rowsArr  []int // panel row -> original row id
	stageRow []int
	stageVal []float64
	stageOff []int
}

// snScratch returns the workspace's supernode staging scratch, lazily
// built and grown to dimension n.
func (w *Workspace) snScratch(n int) *snScratch {
	if w.sn == nil {
		w.sn = &snScratch{}
	}
	sn := w.sn
	if len(sn.rowTag) < n {
		sn.rowTag = make([]int, n)
		sn.rowPanel = make([]int, n)
		sn.tag = 0
	}
	return sn
}

// FactorSupernodalInto factors the square block a like FactorInto, but
// eliminates the supernodes of the xsup partition (boundaries as returned
// by etree.RelaxedSupernodes: supernode s spans columns [xsup[s],
// xsup[s+1])) through blocked dense panels: each supernode column runs the
// standard reach + left-looking update against the columns *outside* the
// supernode — in-panel pivots are still unassigned, so the DFS
// self-restricts — and the remaining sub-panel (the union of the columns'
// unpivoted patterns, padded with explicit structural zeros) is factored
// right-looking with the same diagonal-preference partial pivoting as the
// sparse kernel. Singleton supernodes take the plain per-column path
// unchanged. Storage recycling, error contract and the emitted invariants
// match FactorInto; dws provides the pooled panel.
func FactorSupernodalInto(f *Factors, a *sparse.CSC, xsup []int, estNnz int, opts Options, ws *Workspace, dws *dense.Workspace) error {
	if a.M != a.N {
		return fmt.Errorf("gp: matrix must be square, got %d×%d", a.M, a.N)
	}
	n := a.N
	if err := checkPartition(xsup, n); err != nil {
		return err
	}
	if ws == nil {
		ws = NewWorkspace(n)
	} else {
		ws.Grow(n)
	}
	if estNnz < a.Nnz()+n {
		estNnz = a.Nnz() + n
	}
	f.resetPatterns(n, estNnz)
	f.P = sparse.GrowInts(f.P, n)
	f.Pinv = sparse.GrowInts(f.Pinv, n)
	f.Flops = 0
	for i := range f.Pinv {
		f.Pinv[i] = -1
	}
	prune := !opts.NoPrune && n >= pruneMinDim
	for j := 0; j < n; j++ {
		ws.lpend[j] = -1
	}
	if prune {
		f.PruneEnd = sparse.GrowInts(f.PruneEnd, n)
		for j := range f.PruneEnd {
			f.PruneEnd[j] = -1
		}
	} else {
		f.PruneEnd = nil
	}
	tol := opts.tol()
	sn := ws.snScratch(n)

	for s := 0; s+1 < len(xsup); s++ {
		k0, k1 := xsup[s], xsup[s+1]
		if opts.Poll != nil && s%64 == 0 {
			if err := opts.Poll(); err != nil {
				return err
			}
		}
		if k1 == k0+1 {
			if err := f.factorFreshColumn(a, k0, tol, opts, ws, prune); err != nil {
				return err
			}
			continue
		}
		if err := f.factorSupernode(a, k0, k1, tol, opts, ws, sn, dws, prune); err != nil {
			return err
		}
	}
	f.finishFactor(ws, prune)
	f.Snodes = append(f.Snodes[:0], xsup...)
	f.markBlocked(ws)
	return nil
}

// factorSupernode eliminates the wide supernode [k0, k1) in two phases:
// the left-looking outside elimination and U emission per column, then one
// right-looking pivoted panel LU over the staged union sub-panel.
func (f *Factors) factorSupernode(a *sparse.CSC, k0, k1 int, tol float64, opts Options, ws *Workspace, sn *snScratch, dws *dense.Workspace, prune bool) error {
	n := f.N
	w := k1 - k0
	x := ws.X
	xi := ws.Xi
	sn.tag++
	tag := sn.tag
	sn.rowsArr = sn.rowsArr[:0]
	sn.stageRow = sn.stageRow[:0]
	sn.stageVal = sn.stageVal[:0]
	sn.stageOff = append(sn.stageOff[:0], 0)

	// --- Phase 1: per column, reach + updates from outside columns only
	// (in-supernode pivots are unassigned, so the DFS treats their rows as
	// leaves and the update loop skips them), U emission with the padded
	// triangle, and staging of the unpivoted remainder.
	for k := k0; k < k1; k++ {
		top := reach(f.L, f.Pinv, a, k, ws)
		for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
			x[a.Rowidx[p]] = a.Values[p]
		}
		for t := top; t < n; t++ {
			i := xi[t]
			j := f.Pinv[i]
			if j < 0 {
				continue
			}
			xj := x[i]
			if xj == 0 {
				continue
			}
			lp0 := f.L.Colptr[j]
			lp1 := f.L.Colptr[j+1]
			rows := f.L.Rowidx[lp0+1 : lp1]
			vals := f.L.Values[lp0+1 : lp1]
			vals = vals[:len(rows)] // bounds-check elimination hint
			for t2, i2 := range rows {
				x[i2] -= vals[t2] * xj
			}
			f.Flops += int64(lp1 - lp0 - 1)
		}
		// Emit U(:,k): outside pivoted rows (every assigned pivot is < k0
		// here), then the full padded triangle, pivot placeholder last. The
		// triangle and pivot values land after the panel factors.
		for t := top; t < n; t++ {
			i := xi[t]
			if j := f.Pinv[i]; j >= 0 {
				f.U.Rowidx = append(f.U.Rowidx, j)
				f.U.Values = append(f.U.Values, x[i])
			}
		}
		for d := k0; d < k; d++ {
			f.U.Rowidx = append(f.U.Rowidx, d)
			f.U.Values = append(f.U.Values, 0)
		}
		f.U.Rowidx = append(f.U.Rowidx, k)
		f.U.Values = append(f.U.Values, 0)
		f.U.Colptr[k+1] = len(f.U.Rowidx)
		// Stage the unpivoted pattern rows; panel rows are the union across
		// the supernode's columns, assigned in encounter order.
		for t := top; t < n; t++ {
			i := xi[t]
			if f.Pinv[i] >= 0 {
				continue
			}
			if sn.rowTag[i] != tag {
				sn.rowTag[i] = tag
				sn.rowPanel[i] = len(sn.rowsArr)
				sn.rowsArr = append(sn.rowsArr, i)
			}
			sn.stageRow = append(sn.stageRow, sn.rowPanel[i])
			sn.stageVal = append(sn.stageVal, x[i])
		}
		sn.stageOff = append(sn.stageOff, len(sn.stageRow))
		clearX(x, xi, top, n, a, k)
	}

	m := len(sn.rowsArr)
	if m < w {
		return fmt.Errorf("gp: supernode %d..%d: %w", k0, k1-1, ErrSingular)
	}

	// --- Phase 2: right-looking pivoted LU of the m×w union sub-panel.
	panel := dws.Panel(m, w)
	for c := 0; c < w; c++ {
		col := panel.Col(c)
		for q := sn.stageOff[c]; q < sn.stageOff[c+1]; q++ {
			col[sn.stageRow[q]] = sn.stageVal[q]
		}
	}
	rowsArr := sn.rowsArr
	for d := 0; d < w; d++ {
		cd := panel.Col(d)
		pivR := -1
		maxAbs := 0.0
		for r := d; r < m; r++ {
			if v := math.Abs(cd[r]); v > maxAbs {
				maxAbs = v
				pivR = r
			}
		}
		nat := -1
		for r := d; r < m; r++ {
			if rowsArr[r] == k0+d {
				nat = r
				break
			}
		}
		if opts.NoPivot {
			if nat < 0 || cd[nat] == 0 {
				return fmt.Errorf("gp: column %d: %w", k0+d, ErrSingular)
			}
			pivR = nat
		} else if pivR >= 0 && nat >= 0 {
			// Diagonal preference: keep the natural pivot when acceptable.
			if v := math.Abs(cd[nat]); v >= tol*maxAbs && v > 0 {
				pivR = nat
			}
		}
		if pivR < 0 || cd[pivR] == 0 {
			return fmt.Errorf("gp: column %d: %w", k0+d, ErrSingular)
		}
		if pivR != d {
			panel.SwapRows(d, pivR)
			rowsArr[d], rowsArr[pivR] = rowsArr[pivR], rowsArr[d]
		}
		piv := cd[d]
		for r := d + 1; r < m; r++ {
			cd[r] /= piv
		}
		for j := d + 1; j < w; j++ {
			cj := panel.Col(j)
			fjd := cj[d]
			if fjd == 0 {
				continue
			}
			tgt := cj[d+1:]
			lo := cd[d+1:]
			lo = lo[:len(tgt)] // bounds-check elimination hint
			for r, v := range lo {
				tgt[r] -= v * fjd
			}
		}
		f.Flops += int64(m-d-1) * int64(w-d)
		f.P[k0+d] = rowsArr[d]
		f.Pinv[rowsArr[d]] = k0 + d
	}

	// --- Emit: U triangle + pivot values in place, L columns appended
	// (pivot unit first, then the shared union rows in panel order — the
	// final remap and sort put them in position order).
	for c := 0; c < w; c++ {
		k := k0 + c
		col := panel.Col(c)
		up1 := f.U.Colptr[k+1]
		for d := 0; d < c; d++ {
			f.U.Values[up1-1-c+d] = col[d]
		}
		f.U.Values[up1-1] = col[c]
		f.L.Rowidx = append(f.L.Rowidx, rowsArr[c]) // original id; remapped later
		f.L.Values = append(f.L.Values, 1)
		for r := c + 1; r < m; r++ {
			f.L.Rowidx = append(f.L.Rowidx, rowsArr[r])
			f.L.Values = append(f.L.Values, col[r])
		}
		f.L.Colptr[k+1] = len(f.L.Rowidx)
	}
	if prune {
		for c := 0; c < w; c++ {
			f.pruneStep(k0+c, rowsArr[c], ws)
		}
	}
	return nil
}

// Blocked-refresh tuning; the file header explains the two outside-update
// strategies these constants choose between.
const (
	// snBlockedDensity is the outside-U density (stored outside entries
	// over w × |union of the columns' outside rows|) from which a wide
	// supernode refreshes through the blocked outside update, picked from
	// BenchmarkRefactorSupernodal in internal/core: the fill-heavy classes'
	// supernodes sit at 0.3–0.7, the Xyce-class ones at ≤ 0.15, and the
	// classes in between time the same either way.
	snBlockedDensity = 0.25
	// snTileCols caps the target columns of one block tile.
	snTileCols = 16
	// snTileFloats bounds one block tile (rows × columns) to 0.4 MiB.
	snTileFloats = 52428
	// snWideRun is the shortest run of one wide source supernode's columns
	// that takes the in-source triangle solve plus tiled below product;
	// shorter runs go column by column.
	snWideRun = 4
)

// snBlock is the reusable scratch of the blocked outside update: the tile's
// ascending outside-row union, its value block, and a wide source's
// block-relative below rows and per-column offsets of its below values.
type snBlock struct {
	rows  []int
	val   []float64
	rel   []int
	lbase []int
}

// block returns a zeroed n-element value block.
func (sb *snBlock) block(n int) []float64 {
	if cap(sb.val) < n {
		sb.val = make([]float64, n)
	}
	sb.val = sb.val[:n]
	clear(sb.val)
	return sb.val
}

// checkPartition rejects a supernode partition that does not tile 0..n.
func checkPartition(xsup []int, n int) error {
	if len(xsup) < 2 || xsup[0] != 0 || xsup[len(xsup)-1] != n {
		return fmt.Errorf("gp: supernode partition does not cover 0..%d", n)
	}
	return nil
}

// markBlocked fixes, once per fresh factorization, which wide supernodes
// refresh through the blocked outside update: those whose outside-U density
// reaches snBlockedDensity. Pattern-only, so it holds for every refresh.
func (f *Factors) markBlocked(ws *Workspace) {
	ns := len(f.Snodes) - 1
	f.snBlocked = sparse.GrowBools(f.snBlocked, ns)
	for s := 0; s < ns; s++ {
		k0, k1 := f.Snodes[s], f.Snodes[s+1]
		ws.Tag++
		nnz, rows := 0, 0
		for k := k0; k < k1 && k1-k0 > 1; k++ {
			for p := f.U.Colptr[k]; f.U.Rowidx[p] < k0; p++ {
				nnz++
				if j := f.U.Rowidx[p]; ws.Mark[j] != ws.Tag {
					ws.Mark[j] = ws.Tag
					rows++
				}
			}
		}
		f.snBlocked[s] = nnz > 0 && float64(nnz) >= snBlockedDensity*float64((k1-k0)*rows)
	}
}

// RefactorSupernodal recomputes the numeric values of a supernodal
// factorization (built by FactorSupernodalInto) for a new matrix a with the
// same pattern, reusing the pivot sequence: singleton supernodes refresh
// column at a time exactly like Refactor, wide supernodes gather their
// outside-eliminated columns into a pooled panel and re-run the
// right-looking elimination with no pivot search. Deterministic and
// idempotent like every refresh kernel, so the partial-vs-full bitwise
// contract carries over. A factor whose Snodes do not partition 0..N is
// rejected with the same error FactorSupernodalInto raises.
func (f *Factors) RefactorSupernodal(a *sparse.CSC, ws *Workspace, dws *dense.Workspace) error {
	return f.refactorSupernodal(a, ws, dws, nil, 0, nil, f.snBlocked)
}

// RefactorSupernodalSelective is RefactorSupernodal restricted to the
// dependency closure of a dirty column set, at supernode granularity: a
// wide supernode reruns when any of its columns' inputs changed
// (colStamp == epoch) or any already-rerun column appears in its outside
// U patterns, and is skipped whole otherwise. Rerunning a supernode whose
// earlier columns are clean is an over-refresh, which the refresh kernels'
// determinism makes bitwise harmless; rerun is overwritten per column so
// downstream closure scans see the same contract as RefactorSelective.
func (f *Factors) RefactorSupernodalSelective(a *sparse.CSC, ws *Workspace, dws *dense.Workspace, colStamp []uint64, epoch uint64, rerun []bool) error {
	return f.refactorSupernodal(a, ws, dws, colStamp, epoch, rerun, f.snBlocked)
}

// refactorSupernodal is the sweep behind both refreshes: a nil colStamp
// reruns every supernode, otherwise the selective closure rule decides.
// blocked[s] picks the outside update of wide supernode s.
func (f *Factors) refactorSupernodal(a *sparse.CSC, ws *Workspace, dws *dense.Workspace, colStamp []uint64, epoch uint64, rerun, blocked []bool) error {
	n := f.N
	if a.M != n || a.N != n {
		return fmt.Errorf("gp: refactor dimension mismatch")
	}
	xsup := f.Snodes
	if err := checkPartition(xsup, n); err != nil {
		return err
	}
	if ws == nil {
		ws = NewWorkspace(n)
	} else {
		ws.Grow(n)
	}
	if colStamp != nil {
		f.upperRows()
		clear(rerun[:n])
	}
	for s := 0; s+1 < len(xsup); s++ {
		k0, k1 := xsup[s], xsup[s+1]
		if colStamp != nil && !snodeDirty(k0, k1, colStamp, epoch, rerun) {
			continue
		}
		var err error
		if k1 == k0+1 {
			err = f.refactorColumn(a, ws.X, k0)
		} else {
			err = f.refreshSupernode(a, ws, k0, k1, s < len(blocked) && blocked[s], dws)
		}
		if err != nil {
			return err
		}
		if colStamp != nil {
			f.markDependents(k0, k1, rerun)
		}
	}
	return nil
}

// snodeDirty applies the selective closure rule to supernode [k0, k1): it
// reruns when a column's input changed or an earlier rerun column marked
// one of its columns forward, and the verdict covers all its columns.
func snodeDirty(k0, k1 int, colStamp []uint64, epoch uint64, rerun []bool) bool {
	for k := k0; k < k1; k++ {
		if rerun[k] || colStamp[k] == epoch {
			for j := k0; j < k1; j++ {
				rerun[j] = true
			}
			return true
		}
	}
	return false
}

// refreshSupernode refreshes the wide supernode [k0, k1) in place: the
// outside update — blocked or column at a time — lands every column's
// supernode-triangle and below values in the panel, the panel re-runs the
// fixed-sequence right-looking elimination, and the result scatters back
// over the unchanged factor patterns. Panel row d < w is pivot position
// k0+d, row w+t the t-th below-supernode entry of every column — the shared
// sorted below-row sequence the supernodal emission guarantees.
func (f *Factors) refreshSupernode(a *sparse.CSC, ws *Workspace, k0, k1 int, blocked bool, dws *dense.Workspace) error {
	panel := dws.Panel(f.L.Colptr[k0+1]-f.L.Colptr[k0], k1-k0)
	if blocked {
		f.outsideBlocked(a, ws, k0, k1, panel)
	} else {
		f.outsideColumns(a, ws.X, k0, k1, panel)
	}
	if err := eliminatePanel(panel, k0); err != nil {
		return err
	}
	f.scatterPanel(panel, k0)
	return nil
}

// outsideColumns is the column-at-a-time outside update, the branch of
// sparse supernodes: each column scatters its input in pivot space and
// eliminates against the outside columns along its own U pattern
// (ascending, same arithmetic as refactorColumn) through the dense
// accumulator x, which it leaves clean.
func (f *Factors) outsideColumns(a *sparse.CSC, x []float64, k0, k1 int, panel *dense.Matrix) {
	w := k1 - k0
	below := f.L.Rowidx[f.L.Colptr[k0]+w : f.L.Colptr[k0+1]]
	for c := 0; c < w; c++ {
		k := k0 + c
		for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
			x[f.Pinv[a.Rowidx[p]]] = a.Values[p]
		}
		for p := f.U.Colptr[k]; f.U.Rowidx[p] < k0; p++ {
			j := f.U.Rowidx[p]
			xj := x[j]
			f.U.Values[p] = xj
			x[j] = 0
			if xj == 0 {
				continue
			}
			rows := f.L.Rowidx[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
			vals := f.L.Values[f.L.Colptr[j]+1 : f.L.Colptr[j+1]]
			vals = vals[:len(rows)] // bounds-check elimination hint
			for t, i := range rows {
				x[i] -= vals[t] * xj
			}
		}
		col := panel.Col(c)
		for d := 0; d < w; d++ {
			col[d] = x[k0+d]
			x[k0+d] = 0
		}
		for t, pos := range below {
			col[w+t] = x[pos]
			x[pos] = 0
		}
	}
}

// outsideBlocked is the supernode–panel outside update. Tiles of up to
// snTileCols target columns (fewer when the block would exceed
// snTileFloats) are gathered into one dense block whose rows are the
// ascending union of the tile's outside rows followed by the panel rows;
// ws.Pstack, idle during a refresh, maps a pivot position to its block row.
// Every source column is then applied to the whole tile in ascending
// order, and the block lands in U's outside values and the panel.
func (f *Factors) outsideBlocked(a *sparse.CSC, ws *Workspace, k0, k1 int, panel *dense.Matrix) {
	w, m := k1-k0, panel.Rows
	below := f.L.Rowidx[f.L.Colptr[k0]+w : f.L.Colptr[k0+1]]
	slot, sb := ws.Pstack, &ws.blk
	for c0 := 0; c0 < w; {
		ws.Tag++
		rows := sb.rows[:0]
		c1 := c0
		for c1 < w && c1-c0 < snTileCols {
			up0 := f.U.Colptr[k0+c1]
			up := up0
			for f.U.Rowidx[up] < k0 {
				up++
			}
			if c1 > c0 && (len(rows)+up-up0+m)*(c1-c0+1) > snTileFloats {
				break
			}
			for _, j := range f.U.Rowidx[up0:up] {
				if ws.Mark[j] != ws.Tag {
					ws.Mark[j] = ws.Tag
					rows = append(rows, j)
				}
			}
			c1++
		}
		slices.Sort(rows)
		sb.rows = rows
		nOut, tc := len(rows), c1-c0
		ld := nOut + m
		for q, j := range rows {
			slot[j] = q
		}
		for d := 0; d < w; d++ {
			slot[k0+d] = nOut + d
		}
		for t, i := range below {
			slot[i] = nOut + w + t
		}
		blk := sb.block(ld * tc)
		for c := 0; c < tc; c++ {
			k, col := k0+c0+c, blk[c*ld:(c+1)*ld]
			for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
				col[slot[f.Pinv[a.Rowidx[p]]]] = a.Values[p]
			}
		}
		f.applySources(sb, blk, ld, tc, slot)
		for c := 0; c < tc; c++ {
			k, col := k0+c0+c, blk[c*ld:(c+1)*ld]
			for p := f.U.Colptr[k]; f.U.Rowidx[p] < k0; p++ {
				f.U.Values[p] = col[slot[f.U.Rowidx[p]]]
			}
			copy(panel.Col(c0+c), col[nOut:])
		}
		c0 = c1
	}
}

// applySources eliminates a tile block of tc columns (leading dimension
// ld) against every source column in sb.rows, ascending: a run of
// snWideRun or more trailing columns of one wide source supernode goes
// through applyWide, every other source through applySingle.
func (f *Factors) applySources(sb *snBlock, blk []float64, ld, tc int, slot []int) {
	rows, xsup := sb.rows, f.Snodes
	s := 0
	for q := 0; q < len(rows); {
		j := rows[q]
		d, _ := slices.BinarySearch(xsup[s+1:], j+1)
		s += d // xsup[s] <= j < xsup[s+1]
		j1 := xsup[s+1]
		r := q + 1
		for r < len(rows) && rows[r] < j1 {
			r++
		}
		// The fill closure makes the run the contiguous tail j..j1-1 of the
		// source (its padded triangle reaches every later column), so its
		// length is j1-j; anything else goes column by column.
		if r-q >= snWideRun && r-q == j1-j {
			f.applyWide(sb, blk, ld, tc, q, j, xsup[s], j1, slot)
		} else {
			for ; q < r; q++ {
				f.applySingle(blk, ld, tc, q, rows[q], slot)
			}
		}
		q = r
	}
}

// applySingle applies source column j (block row q) to every tile column
// with a nonzero multiplier, four columns per pass over L(:,j). Its rows go
// through the slot map on every pass: a tile takes at most snTileCols/4
// passes, too few to repay a separate translation.
func (f *Factors) applySingle(blk []float64, ld, tc, q, j int, slot []int) {
	lp0, lp1 := f.L.Colptr[j]+1, f.L.Colptr[j+1]
	rows, vals := f.L.Rowidx[lp0:lp1], f.L.Values[lp0:lp1]
	var cols [4][]float64
	var us [4]float64
	nc := 0
	for c := 0; c < tc; c++ {
		col := blk[c*ld : (c+1)*ld]
		if u := col[q]; u != 0 {
			cols[nc], us[nc] = col, u
			if nc++; nc == 4 {
				axpy4(rows, slot, vals, &cols, &us)
				nc = 0
			}
		}
	}
	if nc >= 2 {
		nc -= 2
		axpy2(rows, slot, vals, cols[nc], cols[nc+1], us[nc], us[nc+1])
	}
	if nc == 1 {
		axpy1(rows, slot, vals, cols[0], us[0])
	}
}

// applyWide applies the trailing run j..j1-1 of wide source supernode
// [j0, j1) (block rows q..) to the tile: per column, the in-source
// triangle solve on the packed multipliers, then the shared below rows as
// a register-tiled product starting at the column's first nonzero
// multiplier. Columns pair up for tile42; a column with a zero
// multiplier inside its segment takes the skipping column-by-column path,
// so every element sees exactly the per-column kernel's operations.
func (f *Factors) applyWide(sb *snBlock, blk []float64, ld, tc, q, j, j0, j1 int, slot []int) {
	run := j1 - j
	lv := f.L.Values
	rel := sb.rel[:0]
	for _, i := range f.L.Rowidx[f.L.Colptr[j0]+j1-j0 : f.L.Colptr[j0+1]] {
		rel = append(rel, slot[i])
	}
	sb.rel = rel
	lb := sb.lbase[:0]
	for d := j; d < j1; d++ {
		lb = append(lb, f.L.Colptr[d]+j1-d) // first below value of L(:,d)
	}
	sb.lbase = lb
	pend, pendLo := []float64(nil), 0 // a clean column awaiting a partner
	for c := 0; c < tc; c++ {
		col := blk[c*ld : (c+1)*ld]
		u := col[q : q+run]
		lo, clean := run, true
		for d, ud := range u {
			if ud == 0 {
				if lo < run {
					clean = false
				}
				continue
			}
			if lo == run {
				lo = d
			}
			lp := f.L.Colptr[j+d] + 1
			axpy(u[d+1:], lv[lp:lp+run-d-1], ud)
		}
		switch {
		case lo == run:
		case !clean:
			// Each maximal run of nonzero multipliers, ascending.
			for d := lo; d < run; {
				e := d + 1
				for e < run && u[e] != 0 {
					e++
				}
				tile41(rel, lv, lb[d:e], col, u[d:e])
				for d = e; d < run && u[d] == 0; d++ {
				}
			}
		case pend == nil:
			pend, pendLo = col, lo
		default:
			pu := pend[q : q+run]
			if pendLo < lo {
				tile41(rel, lv, lb[pendLo:lo], pend, pu[pendLo:lo])
			} else if lo < pendLo {
				tile41(rel, lv, lb[lo:pendLo], col, u[lo:pendLo])
			}
			hi := max(lo, pendLo)
			tile42(rel, lv, lb[hi:], pend, col, pu[hi:], u[hi:])
			pend = nil
		}
	}
	if pend != nil {
		tile41(rel, lv, lb[pendLo:], pend, pend[q+pendLo:q+run])
	}
}

// axpy1 is col[slot[rows[t]]] -= vals[t]·u over one source column.
func axpy1(rows, slot []int, vals, col []float64, u float64) {
	vals = vals[:len(rows)] // bounds-check elimination hint
	for t, i := range rows {
		col[slot[i]] -= vals[t] * u
	}
}

// axpy2 is axpy1 on two target columns per pass over the source.
func axpy2(rows, slot []int, vals, c0, c1 []float64, u0, u1 float64) {
	vals = vals[:len(rows)] // bounds-check elimination hint
	for t, i := range rows {
		l, r := vals[t], slot[i]
		c0[r] -= l * u0
		c1[r] -= l * u1
	}
}

// axpy4 is axpy1 on four target columns per pass over the source.
func axpy4(rows, slot []int, vals []float64, cols *[4][]float64, us *[4]float64) {
	vals = vals[:len(rows)] // bounds-check elimination hint
	c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
	u0, u1, u2, u3 := us[0], us[1], us[2], us[3]
	for t, i := range rows {
		l, r := vals[t], slot[i]
		c0[r] -= l * u0
		c1[r] -= l * u1
		c2[r] -= l * u2
		c3[r] -= l * u3
	}
}

// tile41 subtracts the product of a wide source's below block (row t of
// source column d at lv[lb[d]+t], block rows rel) and the multipliers u
// from col: the vector kernel's 8- and 4-row tiles where there is one, then
// the Go loop for the rows left.
func tile41(rel []int, lv []float64, lb []int, col, u []float64) {
	t := 0
	if hasAVX2 {
		t = tile41Vec(rel, lv, lb, col, u)
	}
	tile41Go(rel, lv, lb, col, u, t)
}

// tile41Go is tile41's Go loop from row t0: the fallback, and the reference
// of the vector kernel. Four rows are held in registers across the whole
// run, so each element still sees its updates one by one in ascending d.
func tile41Go(rel []int, lv []float64, lb []int, col, u []float64, t0 int) {
	u = u[:len(lb)]
	t := t0
	for ; t+4 <= len(rel); t += 4 {
		i0, i1, i2, i3 := rel[t], rel[t+1], rel[t+2], rel[t+3]
		a0, a1, a2, a3 := col[i0], col[i1], col[i2], col[i3]
		for d, p := range lb {
			l := lv[p+t : p+t+4]
			ud := u[d]
			a0 -= l[0] * ud
			a1 -= l[1] * ud
			a2 -= l[2] * ud
			a3 -= l[3] * ud
		}
		col[i0], col[i1], col[i2], col[i3] = a0, a1, a2, a3
	}
	for ; t < len(rel); t++ {
		i := rel[t]
		a := col[i]
		for d, p := range lb {
			a -= lv[p+t] * u[d]
		}
		col[i] = a
	}
}

// tile42 is tile41 on two target columns at once: a register tile reads
// each source value once for both columns.
func tile42(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64) {
	t := 0
	if hasAVX2 {
		t = tile42Vec(rel, lv, lb, colA, colB, uA, uB)
	}
	tile42Go(rel, lv, lb, colA, colB, uA, uB, t)
}

// tile42Go is tile42's Go loop from row t0, in 4×2 tiles: the fallback,
// and the reference of the vector kernel.
func tile42Go(rel []int, lv []float64, lb []int, colA, colB, uA, uB []float64, t0 int) {
	uA, uB = uA[:len(lb)], uB[:len(lb)]
	t := t0
	var acc [8]float64
	for ; t+4 <= len(rel); t += 4 {
		r := rel[t : t+4]
		for e, i := range r {
			acc[e], acc[4+e] = colA[i], colB[i]
		}
		dot42(lv[t:], lb, uA, uB, &acc)
		for e, i := range r {
			colA[i], colB[i] = acc[e], acc[4+e]
		}
	}
	for ; t < len(rel); t++ {
		i := rel[t]
		a, b := colA[i], colB[i]
		for d, p := range lb {
			l := lv[p+t]
			a -= l * uA[d]
			b -= l * uB[d]
		}
		colA[i], colB[i] = a, b
	}
}

// dot42 is one 4×2 tile of tile42 over the whole run: acc holds four
// rows of column A, then the same rows of column B, and source column d
// contributes lv[lb[d]:lb[d]+4]. It stays out of line so the caller's
// loop state is not live across the run; inlined, the compiler spills the
// accumulators and reloads the slices on every step.
//
//go:noinline
func dot42(lv []float64, lb []int, uA, uB []float64, acc *[8]float64) {
	uA, uB = uA[:len(lb)], uB[:len(lb)]
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	b0, b1, b2, b3 := acc[4], acc[5], acc[6], acc[7]
	for d, p := range lb {
		l := lv[p : p+4]
		ua, ub := uA[d], uB[d]
		a0 -= l[0] * ua
		b0 -= l[0] * ub
		a1 -= l[1] * ua
		b1 -= l[1] * ub
		a2 -= l[2] * ua
		b2 -= l[2] * ub
		a3 -= l[3] * ua
		b3 -= l[3] * ub
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	acc[4], acc[5], acc[6], acc[7] = b0, b1, b2, b3
}

// eliminatePanel is the fixed-sequence right-looking elimination of the
// refreshed panel of the supernode starting at k0: no pivot search, error
// out on drift to zero (the caller falls back to a fresh factorization).
// Both outside updates leave the workspace clean before it, so the error
// path needs no cleanup.
func eliminatePanel(panel *dense.Matrix, k0 int) error {
	w := panel.Cols
	for d := 0; d < w; d++ {
		cd := panel.Col(d)
		piv := cd[d]
		if piv == 0 {
			return fmt.Errorf("gp: refactor column %d: %w", k0+d, ErrSingular)
		}
		divBy(cd[d+1:], piv)
		for j := d + 1; j < w; j++ {
			cj := panel.Col(j)
			if fjd := cj[d]; fjd != 0 {
				axpy(cj[d+1:], cd[d+1:], fjd)
			}
		}
	}
	return nil
}

// axpy is dst[i] -= src[i]·s over the contiguous dst: the in-source
// triangle of applyWide and the column update of eliminatePanel.
func axpy(dst, src []float64, s float64) {
	if hasAVX2 {
		axpyVec(dst, src, s)
		return
	}
	axpyGo(dst, src, s)
}

// axpyGo is axpy's Go loop: the fallback, and the reference of the vector
// kernel.
func axpyGo(dst, src []float64, s float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] -= v * s
	}
}

// divBy is x[i] /= s, eliminatePanel's scaling of a pivot column.
func divBy(x []float64, s float64) {
	if hasAVX2 {
		divByVec(x, s)
		return
	}
	divByGo(x, s)
}

// divByGo is divBy's Go loop: the fallback, and the reference of the
// vector kernel.
func divByGo(x []float64, s float64) {
	for i := range x {
		x[i] /= s
	}
}

// scatterPanel writes the eliminated panel of the supernode starting at
// k0 back over the fixed U triangle, pivot and L patterns.
func (f *Factors) scatterPanel(panel *dense.Matrix, k0 int) {
	w, nb := panel.Cols, panel.Rows-panel.Cols
	for c := 0; c < w; c++ {
		k := k0 + c
		col := panel.Col(c)
		up1 := f.U.Colptr[k+1]
		for d := 0; d < c; d++ {
			f.U.Values[up1-1-c+d] = col[d]
		}
		f.U.Values[up1-1] = col[c]
		lp := f.L.Colptr[k]
		for d := c + 1; d < w; d++ {
			f.L.Values[lp+d-c] = col[d]
		}
		copy(f.L.Values[lp+w-c:lp+w-c+nb], col[w:])
	}
}
