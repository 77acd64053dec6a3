package trisolve

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
// through the off-block couplings — the reachability closure of the BTF
// coupling graph. A block absent from the result is guaranteed to produce
// a bit-for-bit identical solution component for the same right-hand side,
// which is what lets callers of the incremental refactorization path reuse
// cached per-block solution work.
//
// The result is freshly allocated (len NumBlocks); this is an analysis
// helper, not a hot-loop primitive.
func (s *Solver) SolutionClosure(changedCols []int) []bool {
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
	// Close downstream: a block's off-block entries feed strictly earlier
	// blocks, so one descending pass reaches the fixed point.
	for bj := nb - 1; bj >= 0; bj-- {
		if !dirty[bj] {
			continue
		}
		r0, r1 := sym.BlockRange(bj)
		for k := r0; k < r1; k++ {
			for p := perm.Colptr[k]; p < perm.Colptr[k+1]; p++ {
				i := perm.Rowidx[p]
				if i >= r0 {
					break
				}
				dirty[sym.BlockOf(i)] = true
			}
		}
	}
	return dirty
}
