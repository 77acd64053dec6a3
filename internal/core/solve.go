package core

import "repro/internal/gp"

// The solves run in pivot order: SolveInto on one right-hand side,
// SolvePanel on a row-interleaved panel of gp.PanelLanes of them, and every
// trisolve entry point is one of the two. A right-hand side is permuted
// once on the way in, through rowPos, and once on the way out, through
// ColPerm. In between every diagonal block is solved in place, since its
// rows already sit in the order its pivots chose, and the coarse off-block
// couplings and the fine-ND lower couplings target pivot-order rows. Per
// component the operations are those of a gather-per-block solve, in the
// same order, so the solutions are bit-identical to it.

// buildSolveLayout composes rowPos and offRow from the current pivots,
// reusing their storage. Called at the end of every sweep that built or
// replaced factors; a refresh keeps every pivot and so the layout.
func (num *Numeric) buildSolveLayout() {
	sym, perm, offPtr := num.Sym, num.Perm, num.Sym.plan.offPtr
	n := sym.N
	if num.rowPos == nil {
		num.rowPos = make([]int32, n)
		num.offRow = make([]int32, offPtr[n])
	}
	rowPos, rowPerm := num.rowPos, sym.RowPerm
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		if sym.kind[blk] == blockSmall {
			pinv := num.small[blk].Pinv
			for k := r0; k < r1; k++ {
				rowPos[rowPerm[k]] = int32(r0 + pinv[k-r0])
			}
			continue
		}
		ndn := num.nd[blk]
		for t, f := range ndn.diag {
			c0, c1 := ndn.sym.blockRange(t)
			for k := r0 + c0; k < r0+c1; k++ {
				rowPos[rowPerm[k]] = int32(r0 + c0 + f.Pinv[k-r0-c0])
			}
		}
	}
	for c := 0; c < n; c++ {
		q0, q1 := offPtr[c], offPtr[c+1]
		rows := perm.Rowidx[perm.Colptr[c]:]
		for q := q0; q < q1; q++ {
			num.offRow[q] = rowPos[rowPerm[rows[q-q0]]]
		}
	}
}

// RowPos returns the solves' row map: RowPos()[i] is the position of
// original row i in pivot order, where SolveInto's work vector and
// SolvePanel's panel hold it.
// Read-only; it changes only with the pivots (FactorInto, or a Refactor that
// re-pivoted a block).
func (num *Numeric) RowPos() []int32 { return num.rowPos }

// Solve solves A x = rhs in place. It allocates its work vector; concurrent
// and allocation-free solves go through the internal/trisolve subsystem,
// which feeds pooled vectors to SolveInto.
func (num *Numeric) Solve(rhs []float64) {
	num.SolveInto(rhs, make([]float64, num.Sym.N))
}

// SolveInto solves A x = rhs in place with the caller's work vector y of
// length n. It performs no allocation and is safe for concurrent use on one
// Numeric (each caller brings its own y), as long as no Refactor runs
// concurrently.
func (num *Numeric) SolveInto(rhs, y []float64) {
	sym := num.Sym
	rhs = rhs[:len(num.rowPos)]
	for i, p := range num.rowPos {
		y[p] = rhs[i]
	}
	// Coarse block back-substitution, last block first (upper BTF).
	for blk := sym.NumBlocks() - 1; blk >= 0; blk-- {
		num.solveBlock(blk, y)
		num.offBlockUpdate(blk, y)
	}
	y = y[:len(sym.ColPerm)]
	for k, j := range sym.ColPerm {
		rhs[j] = y[k]
	}
}

// solveBlock solves coarse diagonal block blk in place against the
// pivot-order vector y (full length n; only y[r0:r1] is touched).
func (num *Numeric) solveBlock(blk int, y []float64) {
	sym := num.Sym
	r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
	switch sym.kind[blk] {
	case blockSmall:
		f := num.small[blk]
		f.LSolve(y[r0:r1])
		f.USolve(y[r0:r1])
	case blockND:
		num.nd[blk].ndSolve(y[r0:r1])
	}
}

// offBlockUpdate subtracts block blk's solution from earlier rows of the
// pivot-order vector y (the entries above the diagonal block in its
// columns) — the coupling step of the coarse BTF back-substitution.
func (num *Numeric) offBlockUpdate(blk int, y []float64) {
	sym, offPtr, offRow := num.Sym, num.Sym.plan.offPtr, num.offRow
	pp, px := num.Perm.Colptr, num.Perm.Values
	r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
	for c := r0; c < r1; c++ {
		xc := y[c]
		q0, q1 := offPtr[c], offPtr[c+1]
		if xc == 0 || q0 == q1 {
			continue
		}
		rows := offRow[q0:q1]
		vals := px[pp[c]:]
		vals = vals[:len(rows)]
		for q, i := range rows {
			y[i] -= float64(vals[q] * xc)
		}
	}
}

// SolvePanel runs the coarse BTF back-substitution over a row-interleaved
// panel: y[i] holds pivot-order row i of all gp.PanelLanes right-hand sides
// (packed through RowPos), so every entry of the diagonal-block factors, the
// fine-ND couplings and the off-block columns is loaded once and applied to
// eight contiguous lanes. Per lane the operation sequence is the serial
// sweep's of SolveInto.
func (num *Numeric) SolvePanel(y []gp.PanelRow) {
	sym, perm, offPtr := num.Sym, num.Perm, num.Sym.plan.offPtr
	for blk := sym.NumBlocks() - 1; blk >= 0; blk-- {
		r0, r1 := sym.BlockPtr[blk], sym.BlockPtr[blk+1]
		switch sym.kind[blk] {
		case blockSmall:
			f := num.small[blk]
			f.LSolvePanel(y[r0:r1])
			f.USolvePanel(y[r0:r1])
		case blockND:
			num.nd[blk].ndSolvePanel(y[r0:r1])
		}
		for c := r0; c < r1; c++ {
			q0, q1 := offPtr[c], offPtr[c+1]
			if x := &y[c]; q0 < q1 && !x.IsZero() {
				p0 := perm.Colptr[c]
				gp.PanelAxpy(y, num.offRow[q0:q1], perm.Values[p0:p0+int(q1-q0)], x)
			}
		}
	}
}
