// Package order is the per-block symbolic front end the solvers share: the
// graph of one diagonal block is built once, straight from a column range
// of the BTF-permuted matrix, and AMD, the elimination tree and the column
// counts all run off that one graph in caller-owned scratch. core and klu
// both analyze their small BTF blocks through Workspace.Block, so the
// baseline and the solver it is compared with run the same ordering
// kernels.
package order

import (
	"repro/internal/etree"
	"repro/internal/order/amd"
	"repro/internal/sparse"
)

// Workspace is one worker's scratch for analyzing block after block. The
// zero value is ready to use. Workspaces are meant to be pooled by the
// caller and returned when an analysis ends — never retained by the
// symbolic object the analysis produces.
type Workspace struct {
	G     sparse.SymGraph
	AMD   amd.Workspace
	Etree etree.Workspace
}

// Block analyzes the diagonal block [r0, r1) of the permuted matrix b:
// graph of B+Bᵀ, AMD order, then elimination tree and column counts under
// the AMD labelling — no extracted copy of the block, no permuted copy. The
// AMD order is composed with the coarse permutations btfRow/btfCol into
// rowPerm/colPerm over [r0, r1). It returns the factor-size estimate for L
// and U together.
func (ws *Workspace) Block(b *sparse.CSC, r0, r1 int, btfRow, btfCol, rowPerm, colPerm []int) (estNnz int) {
	if r1-r0 == 1 {
		rowPerm[r0], colPerm[r0] = btfRow[r0], btfCol[r0]
		return 1
	}
	ws.G.Build(b, r0, r1, nil)
	local := ws.AMD.Order(&ws.G)
	for k, v := range local {
		rowPerm[r0+k] = btfRow[r0+v]
		colPerm[r0+k] = btfCol[r0+v]
	}
	parent := ws.Etree.Symmetric(&ws.G, local)
	for _, c := range ws.Etree.ColCounts(&ws.G, local, parent) {
		estNnz += c
	}
	return 2 * estNnz
}
