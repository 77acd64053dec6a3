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
// per-column scatter and DFS bookkeeping dominates the arithmetic.
//
// A wide supernode is two steps, whoever runs it: every column eliminates
// against the columns left of the supernode in ascending pivot order, then
// eliminatePanel, the one dense panel LU of the package, factors the
// supernode's panel. FactorInto (gp.go) hands every wide supernode of its
// partition to factorSupernode, which runs the first step through
// eliminateFresh and the panel with a pivot search per step. Refactor and
// RefactorSelective walk a factor's Snodes and hand every wide supernode to
// refreshSupernode, which runs the first step over the fixed patterns (one
// of the two outside updates below) and the panel in the fixed sequence.
// Every element sees the same operations in the same order either way, so
// a refresh on the factored values is a bitwise no-op. A dense-built factor
// (dense_feed.go) is the single supernode [0, N): FactorDenseInto runs the
// pivoting eliminatePanel over the whole block, and having no outside
// columns, its refresh is the fixed-sequence one alone.
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
//     whole tile — a narrow source as one pass over L(:,j), the trailing
//     run of a wide source as an in-source triangle solve followed by a
//     register-tiled product over its shared below rows.
//
// The choice is pattern-only and fixed when FactorInto emits the pattern:
// a supernode refreshes blocked when its outside-U density (stored outside
// entries over w × outside-row union) reaches snBlockedDensity; sparser
// ones pay more for the union and the block scan than the reuse saves.
// Both strategies are bitwise identical: every element receives exactly
// the updates t -= l·u of the column kernel, one at a time in ascending
// source column, skipping the same zero multipliers — the register tiles
// only keep the running value in a register between them, nothing is
// summed separately or reassociated.
//
// The block is row-major, one 16-lane row per block row, so a source row
// updates all target columns of its block row in one pass: two ZMM
// registers under AVX-512, four YMM under AVX2. Both tile kernels
// (snode_amd64.s) apply a source as row -= l·mult, mult the source's
// block row of multipliers, only in the lanes where mult is nonzero: the
// AVX-512 pair merge-masks the subtract under a K register, the AVX2 pair
// selects with VBLENDVPD. A masked lane keeps its exact bits (a −0 target,
// a NaN payload, a zero multiplier under an Inf or NaN l), which
// subtracting a zeroed product would not. The pair is chosen once at
// start-up: AVX-512 where hasAVX512 holds, else AVX2 where hasAVX2 does,
// else the Go loops, which stay the reference (and run under -race and off
// amd64). rowUpdate applies one source column to scattered target rows — a
// narrow source, and each column of a wide run's in-source triangle — and
// skips a half-row (AVX-512) or 4-lane group (AVX2) with no live lane.
// runUpdate applies a wide run's below product, each target row held in
// registers across the run: masked up to the first multiplier row from
// which every later one is live in all 16 lanes, then unmasked; four
// target rows at a time, then two, then one under AVX-512, two then one
// under AVX2. eliminatePanel's column update (axpy) and pivot-column
// scaling (divBy) have AVX2 kernels. All of them multiply, then subtract
// (or divide), never fused, so the bits are the Go loops'. Every Go kernel of
// this package writes its products as float64(a*b): the explicit
// conversion is the Go spec's way to forbid fusing x -= a*b into one
// multiply-add, which arm64 builds would otherwise emit, so the Go loops
// round the same way on every platform.
//
// Layout invariants of a supernodal factor over supernode S = [k0, k1),
// w = k1-k0 (on top of the standard sorted-factor invariants):
//   - U(:,k) for k = k0+c holds the column's own outside pattern
//     (positions < k0), then the *padded* supernode triangle k0..k-1 —
//     every triangle entry stored even when structurally absent, the few
//     explicit zeros relaxation buys wider panels with — then the pivot;
//   - every L(:,k) of the supernode stores the same below-supernode row
//     set (the union over the supernode's columns, padded with explicit
//     zeros), so after the ordered copy-out (FactorInto), all w columns
//     share one ascending below-row sequence. refreshSupernode leans on
//     this: panel row w+t of the refresh is the t-th below entry of every
//     column, no row map needed.
//
// Patterns stay value-independent (reach closures and their unions), so
// the refresh sweeps and the in-place refactorization contracts work on
// supernodal factors exactly as on plain ones.

// snScratch is the reusable staging state of factorSupernode: the
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

// factorSupernode eliminates the wide supernode [k0, k1) in two phases:
// the left-looking outside elimination and U emission per column, then the
// pivoting eliminatePanel over the staged union sub-panel.
func (f *Factors) factorSupernode(a *sparse.CSC, k0, k1 int, tol float64, opts Options, ws *Workspace, prune bool) error {
	n := f.N
	w := k1 - k0
	x := ws.X
	xi := ws.Xi
	sn := ws.snScratch(n)
	sn.tag++
	tag := sn.tag
	sn.rowsArr = sn.rowsArr[:0]
	sn.stageRow = sn.stageRow[:0]
	sn.stageVal = sn.stageVal[:0]
	sn.stageOff = append(sn.stageOff[:0], 0)

	// --- Phase 1: per column, the elimination against the outside columns
	// (in-supernode pivots are unassigned, so the reach treats their rows as
	// leaves and eliminateFresh emits only outside rows of U), then the
	// padded triangle and the pivot placeholder — their values land after
	// the panel factors — and staging of the unpivoted remainder.
	for k := k0; k < k1; k++ {
		top := f.eliminateFresh(a, k, k0, ws)
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
	panel := ws.Panel(m, w)
	for c := 0; c < w; c++ {
		col := panel.Col(c)
		for q := sn.stageOff[c]; q < sn.stageOff[c+1]; q++ {
			col[sn.stageRow[q]] = sn.stageVal[q]
		}
	}
	rowsArr := sn.rowsArr
	if err := eliminatePanel(panel, k0, rowsArr, tol, opts.NoPivot); err != nil {
		return err
	}
	for d := 0; d < w; d++ {
		f.Flops += int64(m-d-1) * int64(w-d)
		f.P[k0+d] = rowsArr[d]
		f.Pinv[rowsArr[d]] = k0 + d
	}

	// --- Emit: U triangle + pivot values in place, L columns appended
	// (pivot unit first, then the shared union rows in panel order — the
	// ordered copy-out puts them in position order).
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
	// snTileCols caps the target columns of one block tile and is its row
	// stride: the 16 lanes (four YMM registers) of the tile kernels.
	snTileCols = 16
	// snTileFloats bounds one block tile (rows × snTileCols) to 0.4 MiB.
	snTileFloats = 52428
	// snWideRun is the shortest run of one wide source supernode's columns
	// that takes the in-source triangle solve plus tiled below product;
	// shorter runs go column by column.
	snWideRun = 4
)

// snBlock is the reusable scratch of the blocked outside update: the tile's
// ascending outside-row union, its row-major value block, and a wide
// source's block rows of its below rows and per-column offsets of its below
// values.
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

// checkPartition rejects a supernode partition that does not tile 0..n;
// nil, column at a time, passes.
func checkPartition(xsup []int, n int) error {
	if xsup != nil && (len(xsup) < 2 || xsup[0] != 0 || xsup[len(xsup)-1] != n) {
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
func (f *Factors) refreshSupernode(a *sparse.CSC, ws *Workspace, k0, k1 int, blocked bool) error {
	panel := ws.Panel(f.L.Colptr[k0+1]-f.L.Colptr[k0], k1-k0)
	if blocked {
		f.outsideBlocked(a, ws, k0, k1, panel)
	} else {
		f.outsideColumns(a, ws.X, k0, k1, panel)
	}
	if err := eliminatePanel(panel, k0, nil, 0, false); err != nil {
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
	lp, li, lx := f.L.Colptr, f.L.Rowidx, f.L.Values
	up, ui, ux := f.U.Colptr, f.U.Rowidx, f.U.Values
	below := li[lp[k0]+w : lp[k0+1]]
	for c := 0; c < w; c++ {
		k := k0 + c
		scatterColumn(x, f.Pinv, a, k)
		// U(:,k)'s outside rows come first; its pivot row k ≥ k0 ends them.
		urows, uvals := ui[up[k]:up[k+1]], ux[up[k]:up[k+1]]
		uvals = uvals[:len(urows)]
		for p, j := range urows {
			if j >= k0 {
				break
			}
			xj := x[j]
			uvals[p] = xj
			x[j] = 0
			if xj == 0 {
				continue
			}
			p0, p1 := lp[j]+1, lp[j+1]
			rows, vals := li[p0:p1], lx[p0:p1]
			vals = vals[:len(rows)]
			for t, i := range rows {
				x[i] -= float64(vals[t] * xj)
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
// snTileFloats) are gathered into one dense row-major block: block row r is
// blk[r*snTileCols:][:snTileCols], one lane per tile column (lanes past
// the tile's columns stay zero), and the rows are the ascending union of
// the tile's outside rows followed by the panel rows. ws.Pstack, idle
// during a refresh, maps a pivot position to its block row. Every source
// column is then applied to the whole tile in ascending order, and the
// block lands in U's outside values and, transposed, in the panel.
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
			if c1 > c0 && (len(rows)+up-up0+m)*snTileCols > snTileFloats {
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
		for q, j := range rows {
			slot[j] = q
		}
		for d := 0; d < w; d++ {
			slot[k0+d] = nOut + d
		}
		for t, i := range below {
			slot[i] = nOut + w + t
		}
		blk := sb.block((nOut + m) * snTileCols)
		for c := 0; c < tc; c++ {
			k := k0 + c0 + c
			for p := a.Colptr[k]; p < a.Colptr[k+1]; p++ {
				blk[slot[f.Pinv[a.Rowidx[p]]]*snTileCols+c] = a.Values[p]
			}
		}
		f.applySources(sb, blk, slot)
		for c := 0; c < tc; c++ {
			k := k0 + c0 + c
			for p := f.U.Colptr[k]; f.U.Rowidx[p] < k0; p++ {
				f.U.Values[p] = blk[slot[f.U.Rowidx[p]]*snTileCols+c]
			}
			col := panel.Col(c0 + c)
			for r := range col {
				col[r] = blk[(nOut+r)*snTileCols+c]
			}
		}
		c0 = c1
	}
}

// applySources eliminates a tile block against every source column in
// sb.rows, ascending: a run of snWideRun or more trailing columns of one
// wide source supernode goes through applyWide, every other source column
// through one rowUpdate of its L column.
func (f *Factors) applySources(sb *snBlock, blk []float64, slot []int) {
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
			f.applyWide(sb, blk, q, j, xsup[s], j1, slot)
		} else {
			for ; q < r; q++ {
				lp0, lp1 := f.L.Colptr[rows[q]]+1, f.L.Colptr[rows[q]+1]
				rowUpdate(blk, q, f.L.Rowidx[lp0:lp1], slot, f.L.Values[lp0:lp1])
			}
		}
		q = r
	}
}

// applyWide applies the trailing run j..j1-1 of wide source supernode
// [j0, j1) (block rows q..) to the tile: the in-source triangle solve, one
// rowUpdate per source column over its triangle rows — the run's next
// block rows — then the shared below rows as one runUpdate.
func (f *Factors) applyWide(sb *snBlock, blk []float64, q, j, j0, j1 int, slot []int) {
	run := j1 - j
	for d := 0; d+1 < run; d++ {
		lp := f.L.Colptr[j+d] + 1
		rowUpdate(blk, q+d, f.L.Rowidx[lp:lp+run-d-1], slot, f.L.Values[lp:lp+run-d-1])
	}
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
	runUpdate(blk, rel, f.L.Values, lb, q)
}

// rowUpdate applies one source column to a row-major tile block: every
// target row slot[rows[t]] receives row -= vals[t]·mult on the lanes where
// the multiplier row mult (block row q) is nonzero; the other lanes keep
// their bits. The vector kernels mask, they do not subtract a zeroed
// product, so −0, NaN and what an Inf or NaN vals[t] would make of a zero
// multiplier stay out of the masked lanes.
func rowUpdate(blk []float64, q int, rows, slot []int, vals []float64) {
	if hasAVX2 {
		rowUpdateVec(blk, q, rows, slot, vals)
		return
	}
	rowUpdateGo(blk, q, rows, slot, vals)
}

// rowUpdateGo is rowUpdate's Go loop over the live lanes only: the
// fallback, and the reference of the vector kernel.
func rowUpdateGo(blk []float64, q int, rows, slot []int, vals []float64) {
	mult := (*[snTileCols]float64)(blk[q*snTileCols:])
	live, n := liveLanes(mult)
	vals = vals[:len(rows)] // bounds-check elimination hint
	for t, i := range rows {
		row := (*[snTileCols]float64)(blk[slot[i]*snTileCols:])
		l := vals[t]
		for _, c := range live[:n] {
			row[c] -= float64(l * mult[c])
		}
	}
}

// liveLanes lists the nonzero lanes of a multiplier row.
func liveLanes(mult *[snTileCols]float64) (live [snTileCols]int, n int) {
	for c, u := range mult {
		if u != 0 {
			live[n] = c
			n++
		}
	}
	return live, n
}

// runUpdate subtracts the product of a wide source run's below block (row
// t of source column d at lv[lb[d]+t], target block row rel[t]) and its
// multiplier rows (block rows q..q+len(lb)-1) from the tile, lane by lane
// under the same nonzero-multiplier mask as rowUpdate. The vector kernels
// hold four (AVX-512) or two (AVX2) target rows in registers across the
// whole run, masked up to the first multiplier row from which every later
// one is live in all lanes, unmasked after it.
func runUpdate(blk []float64, rel []int, lv []float64, lb []int, q int) {
	if hasAVX2 {
		runUpdateVec(blk, rel, lv, lb, q)
		return
	}
	runUpdateGo(blk, rel, lv, lb, q)
}

// runUpdateGo is runUpdate's Go loop: the fallback, and the reference of
// the vector kernel. It sweeps the target rows once per source column, in
// ascending order, so each element still receives its updates one at a
// time in ascending source column.
func runUpdateGo(blk []float64, rel []int, lv []float64, lb []int, q int) {
	for d, p := range lb {
		mult := (*[snTileCols]float64)(blk[(q+d)*snTileCols:])
		live, n := liveLanes(mult)
		vals := lv[p : p+len(rel)]
		for t, r := range rel {
			row := (*[snTileCols]float64)(blk[r*snTileCols:])
			l := vals[t]
			for _, c := range live[:n] {
				row[c] -= float64(l * mult[c])
			}
		}
	}
}

// eliminatePanel is the right-looking LU of the panel of the supernode
// starting at pivot position k0, the one panel elimination of every fresh
// and refresh kernel: each step scales its pivot column by the pivot (a
// division, like the column kernels) and updates every later column with a
// nonzero multiplier. With rows (panel row → original row id) each step
// first picks and swaps in its pivot (pivotPanel); a refresh passes nil and
// keeps the fixed sequence, erroring out on drift to zero (the caller falls
// back to a fresh factorization). The outside updates leave the workspace
// clean before it, so the error path needs no cleanup.
func eliminatePanel(panel *dense.Matrix, k0 int, rows []int, tol float64, noPivot bool) error {
	w := panel.Cols
	for d := 0; d < w; d++ {
		cd := panel.Col(d)
		if rows != nil {
			if err := pivotPanel(panel, rows, d, k0+d, tol, noPivot); err != nil {
				return err
			}
		} else if cd[d] == 0 {
			return fmt.Errorf("gp: refactor column %d: %w", k0+d, ErrSingular)
		}
		piv := cd[d]
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

// pivotPanel picks the pivot of step d among panel rows d.. by the
// diagonal-preference rule of the column kernel — the first strict maximum
// in panel-row order, unless the natural row (original id nat) is within
// tol of it and nonzero; noPivot forces the natural row — and swaps it into
// row d, rows included.
func pivotPanel(panel *dense.Matrix, rows []int, d, nat int, tol float64, noPivot bool) error {
	cd := panel.Col(d)
	best, natR := -1, -1
	maxAbs := 0.0
	for r := d; r < len(cd); r++ {
		if v := math.Abs(cd[r]); v > maxAbs {
			maxAbs, best = v, r
		}
		if rows[r] == nat {
			natR = r
		}
	}
	p := best
	if noPivot {
		p = natR
	} else if best >= 0 && natR >= 0 {
		if v := math.Abs(cd[natR]); v >= tol*maxAbs && v > 0 {
			p = natR
		}
	}
	if p < 0 || cd[p] == 0 {
		return fmt.Errorf("gp: column %d: %w", nat, ErrSingular)
	}
	if p != d {
		panel.SwapRows(d, p)
		rows[d], rows[p] = rows[p], rows[d]
	}
	return nil
}

// axpy is dst[i] -= src[i]·s over the contiguous dst, eliminatePanel's
// column update.
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
		dst[i] -= float64(v * s)
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
