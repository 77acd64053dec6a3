package core

import (
	"repro/internal/etree"
	"repro/internal/sparse"
)

// ndEstimates is the product of the paper's Algorithm 3 (Fine ND Symbolic
// Factorization): per-2D-block nonzero count estimates computed in
// parallel, used to pre-size factor storage so the numeric phase avoids
// reallocation inside the parallel region (the bottleneck the paper calls
// out). Diagonal blocks get elimination-tree column counts (treelevel -1);
// off-diagonal blocks get the lest/uest min/max row-range bounds: a column
// whose lower and upper estimated ranges overlap is assumed dense between
// its minimum and maximum row — "a reasonable upper bound and cheaper than
// storing the whole nonzero pattern" (paper §III-C).
type ndEstimates struct {
	// diagNnz[b] estimates nnz(L)+nnz(U) of diagonal block b.
	diagNnz []int
	// lowerNnz[i][j] and upperNnz[i][j] estimate the off-diagonal blocks.
	lowerNnz [][]int
	upperNnz [][]int
}

// estimateND runs the symbolic estimation over the 2D structure of one
// fine-ND block. d is the pattern of the fully permuted ND matrix (values
// are not read, columns need not be sorted); leafCounts[leaf] holds each
// leaf diagonal's elimination-tree column counts, computed once by the
// caller and shared with the supernode detection. Independent blocks of a
// tree level are spread over up to nt workers; at one thread everything
// runs on the caller's goroutine.
func estimateND(d *sparse.CSC, s *ndSym, leafCounts [][]int, nt int) *ndEstimates {
	nb := s.nb
	est := &ndEstimates{
		diagNnz:  make([]int, nb),
		lowerNnz: make([][]int, nb),
		upperNnz: make([][]int, nb),
	}
	for i := 0; i < nb; i++ {
		est.lowerNnz[i] = make([]int, nb)
		est.upperNnz[i] = make([]int, nb)
	}

	// treelevel -1 / 0: diagonal column counts and the lest/uest bounds of
	// every off-diagonal block — embarrassingly parallel over leaves
	// (Algorithm 3 lines 2-9).
	parallelBlocks(s.p, nt, func(t, _ int) {
		leaf := s.tree.Leaves[t]
		r0, r1 := s.blockRange(leaf)
		counts := leafCounts[leaf]
		sum := 0
		for _, c := range counts {
			sum += c
		}
		est.diagNnz[leaf] = 2 * sum
		for _, anc := range s.ancestors[leaf] {
			a0, a1 := s.blockRange(anc)
			// Lower off-diagonal L_k,leaf (Algorithm 3 line 6): pivoting
			// inside the leaf cannot change its row ranges (fill-path
			// theorem), so the input ranges bound the factor.
			est.lowerNnz[anc][leaf] = rowSpanNnz(d, a0, a1, r0, r1)
			// Upper off-diagonal U_leaf,k (line 8): bound each column by
			// the reach estimate |subtree up to max row|.
			est.upperNnz[leaf][anc] = reachBound(d, r0, r1, a0, a1, counts)
		}
	})

	// Higher treelevels (Algorithm 3 lines 11-18): separator diagonal and
	// off-diagonal estimates from the accumulated child bounds. Blocks at
	// the same height are independent.
	for h := 1; h <= s.maxH; h++ {
		parallelBlocks(nb, nt, func(j, _ int) {
			if s.height[j] != h {
				return
			}
			r0, r1 := s.blockRange(j)
			w := r1 - r0
			// Diagonal: input counts plus the dense-span upper bound of
			// the products L_jk·U_kj over the subtree (line 14).
			base := blockNnz(d, r0, r1, r0, r1)
			fillBound := 0
			for kp := s.subLo[j]; kp < j; kp++ {
				lo := est.lowerNnz[j][kp]
				up := est.upperNnz[kp][j]
				if lo > 0 && up > 0 {
					// Overlapping contributions assumed dense in the
					// spanned rows, bounded by the block area.
					f := lo + up
					if f > w*w-base-fillBound {
						f = w*w - base - fillBound
					}
					if f > 0 {
						fillBound += f
					}
				}
			}
			est.diagNnz[j] = 2 * (base + fillBound)
			// Off-diagonal blocks of the separator column/row (lines
			// 15-16): input nnz plus the subtree products' spans.
			for _, anc := range s.ancestors[j] {
				a0, a1 := s.blockRange(anc)
				bound := blockNnz(d, a0, a1, r0, r1)
				for kp := s.subLo[j]; kp < j; kp++ {
					if est.lowerNnz[anc][kp] > 0 && est.upperNnz[kp][j] > 0 {
						bound += est.upperNnz[kp][j]
					}
				}
				if cap := (a1 - a0) * w; bound > cap {
					bound = cap
				}
				est.lowerNnz[anc][j] = bound

				upb := blockNnz(d, r0, r1, a0, a1)
				for kp := s.subLo[j]; kp < j; kp++ {
					if est.upperNnz[kp][anc] > 0 {
						upb += est.upperNnz[kp][anc] / 2
					}
				}
				if cap := w * (a1 - a0); upb > cap {
					upb = cap
				}
				est.upperNnz[j][anc] = upb
			}
		})
	}
	return est
}

// denseMinDim is the smallest 2D block dimension routed through the dense
// panel layer: below it the panel scatter/zero overhead beats the
// mark/append/sort bookkeeping the dense kernels avoid.
const denseMinDim = 16

// computeDenseTags classifies every kernel of one fine-ND block's 2D
// hierarchy from the Algorithm 3 nonzero estimates: a kernel whose
// estimated density (estimate over block area, clamped to 1) reaches the
// threshold is tagged for the dense panel layer at numeric time. The
// estimates are upper bounds, so tagging errs toward dense — which is why
// the default threshold sits well above the fill densities of the paper's
// low-fill circuit classes (see the README sweep). Both block dimensions
// must reach denseMinDim. Tags depend only on the symbolic pattern and the
// analysis options, never on values, so the dense/sparse routing of every
// kernel is fixed for the lifetime of the analysis — the property that
// keeps factor block patterns stable across Factor, FactorInto, Refactor
// and the pool's recycled fresh factorizations.
func (s *ndSym) computeDenseTags(opts Options) {
	if opts.NoDenseKernels || s.est == nil {
		return
	}
	thr := opts.denseKernelThreshold()
	nb := s.nb
	tags := make([]bool, nb*nb)
	any := false
	density := func(nnzEst, area int) float64 {
		if area <= 0 {
			return 0
		}
		d := float64(nnzEst) / float64(area)
		if d > 1 {
			d = 1
		}
		return d
	}
	dim := func(b int) int {
		b0, b1 := s.blockRange(b)
		return b1 - b0
	}
	// Diagonal kernels first: their estimates (elimination-tree column
	// counts for leaves, the overlap fill bound for separators) track the
	// realized factor density closely.
	for j := 0; j < nb; j++ {
		if s.diagDenseEst(j, thr) {
			tags[j*nb+j] = true
			any = true
		}
	}
	// Off-diagonal kernels. Every off-diagonal tag requires its *solving*
	// diagonal (the factor the kernel substitutes against: node j for lower
	// targets, node kp for upper targets) to be dense — a dense-tagged
	// coupling solved by a sparse diagonal would pay the fully dense
	// reduction emission with no dense-solve payoff. On top of that gate, a
	// kernel is tagged either by its own estimate or structurally: the
	// lest/uest min/max row-range bounds badly *under*estimate coupling
	// blocks between two dense separators — the reduction Σ L_ik·U_kj over
	// the shared subtree fills them toward the product of the endpoint
	// densities, which the per-column range bounds cannot see — so a
	// coupling whose endpoint diagonals are both dense AND parent-child in
	// the dependency tree is tagged too (adjacent dense separators share
	// their whole elimination subtree; measured ≥0.92 realized density on
	// the fill-heavy suite classes, while couplings two or more tree levels
	// apart stay moderate at 0.3–0.7 and keep the sparse path).
	for j := 0; j < nb; j++ {
		w := dim(j)
		if w < denseMinDim {
			continue
		}
		adjacent := func(i int) bool {
			return tags[i*nb+i] && tags[j*nb+j] &&
				(s.tree.Parent[i] == j || s.tree.Parent[j] == i)
		}
		// A supernodal solving diagonal counts too: its couplings are still
		// worth the fully dense reduction emission (rank-k through the
		// panel) even though the substitution itself stays sparse — the
		// dense/sparse split of the solve is decided per kernel pair at
		// numeric time, and this keeps the refresh-path dispatch of the
		// reduction consistent with the fresh path.
		for _, i := range s.ancestors[j] {
			h := dim(i)
			if h < denseMinDim || !(tags[j*nb+j] || s.snodal(j)) {
				continue
			}
			if density(s.est.lowerNnz[i][j], h*w) >= thr || adjacent(i) {
				tags[i*nb+j] = true
				any = true
			}
		}
		for kp := s.subLo[j]; kp < j; kp++ {
			h := dim(kp)
			if h < denseMinDim || !(tags[kp*nb+kp] || s.snodal(kp)) {
				continue
			}
			if density(s.est.upperNnz[kp][j], h*w) >= thr || adjacent(kp) {
				tags[kp*nb+j] = true
				any = true
			}
		}
	}
	if any {
		s.dense = tags
	}
}

// diagDenseEst is the diagonal dense-tag predicate, shared by
// computeDenseTags and the supernode detection so the two classifications
// never disagree about which diagonals the fully dense panel LU claims.
func (s *ndSym) diagDenseEst(j int, thr float64) bool {
	b0, b1 := s.blockRange(j)
	w := b1 - b0
	if w < denseMinDim {
		return false
	}
	d := float64(s.est.diagNnz[j]) / float64(w*(w+1))
	if d > 1 {
		d = 1
	}
	return d >= thr
}

// snodeMinDim is the smallest leaf diagonal worth supernode detection:
// below it the panels the merging could produce are too small to beat the
// per-column sparse bookkeeping they replace.
const snodeMinDim = 32

// snodeMaxWidth caps supernode width (pure etree chains included) so panel
// scratch stays bounded; SuperLU uses the same order of magnitude.
const snodeMaxWidth = 64

// computeSupernodes detects supernodes inside the leaf diagonals of one
// fine-ND block from their column elimination trees (consecutive columns
// with nested U patterns, relaxed amalgamation like SuperLU), so
// moderate-density leaves that the area-threshold gate never tags still get
// blocked panel kernels. Leaf diagonals only: a leaf factors its input
// block directly (no reduction feeds it), so the Analyze-time pattern the
// etree is built from is exactly the pattern the numeric phase eliminates.
// dp is the pattern of the fully permuted ND matrix and leafCounts the
// per-leaf symmetric-pattern column counts estimateND also consumed. Must
// run before computeDenseTags, which consults the result to tag couplings
// onto supernodal leaves.
func (s *ndSym) computeSupernodes(dp *sparse.CSC, leafCounts [][]int, opts Options) {
	if opts.NoSupernodes || s.est == nil {
		return
	}
	thr := opts.denseKernelThreshold()
	relax := opts.supernodeRelax()
	var snodes [][]int
	for t := 0; t < s.p; t++ {
		leaf := s.tree.Leaves[t]
		b0, b1 := s.blockRange(leaf)
		if b1-b0 < snodeMinDim {
			continue
		}
		if !opts.NoDenseKernels && s.diagDenseEst(leaf, thr) {
			continue // the fully dense panel LU already covers it
		}
		diag := dp
		if b1-b0 != dp.N {
			diag, _ = dp.ExtractBlockWithMap(b0, b1, b0, b1) // pattern-only, like dp
		}
		// Column etree drives the run structure (the LU bound under
		// pivoting); symmetric-pattern column counts drive the padding
		// bound that keeps runs to genuinely shared factor patterns.
		xsup := etree.RelaxedSupernodes(etree.ColEtree(diag), leafCounts[leaf], relax, snodeMaxWidth)
		wide := false
		for si := 0; si+1 < len(xsup); si++ {
			if xsup[si+1]-xsup[si] >= 2 {
				wide = true
				break
			}
		}
		if !wide {
			continue
		}
		if snodes == nil {
			snodes = make([][]int, s.nb)
		}
		snodes[leaf] = xsup
	}
	s.snodes = snodes
}

// snodal reports whether diagonal b carries a supernode partition.
func (s *ndSym) snodal(b int) bool {
	return s.snodes != nil && s.snodes[b] != nil
}

// snodesOf returns diagonal b's supernode partition (nil when the block
// factors column at a time).
func (s *ndSym) snodesOf(b int) []int {
	if s.snodes == nil {
		return nil
	}
	return s.snodes[b]
}

// Supernodes reports how many wide supernodes (two or more merged columns)
// the analysis detected across every fine-ND block's leaf diagonals (0
// under NoSupernodes, or when no elimination tree produced a mergeable
// run).
func (s *Symbolic) Supernodes() int {
	total := 0
	for _, ns := range s.ndsym {
		if ns == nil || ns.snodes == nil {
			continue
		}
		for _, xsup := range ns.snodes {
			for si := 0; si+1 < len(xsup); si++ {
				if xsup[si+1]-xsup[si] >= 2 {
					total++
				}
			}
		}
	}
	return total
}

// isDense reports whether kernel (i, j) was tagged for the dense layer.
func (s *ndSym) isDense(i, j int) bool {
	return s.dense != nil && s.dense[i*s.nb+j]
}

// DenseKernels reports how many fine-ND kernels the analysis tagged for the
// dense panel layer (0 under NoDenseKernels, or when no block's estimated
// density reaches the threshold — the low-fill regime the paper targets).
func (s *Symbolic) DenseKernels() int {
	total := 0
	for _, ns := range s.ndsym {
		if ns == nil {
			continue
		}
		for _, d := range ns.dense {
			if d {
				total++
			}
		}
	}
	return total
}

// blockNnz counts the entries of d inside rows [r0, r1) × columns
// [c0, c1), scanning the columns in place.
func blockNnz(d *sparse.CSC, r0, r1, c0, c1 int) int {
	total := 0
	for p := d.Colptr[c0]; p < d.Colptr[c1]; p++ {
		if i := d.Rowidx[p]; i >= r0 && i < r1 {
			total++
		}
	}
	return total
}

// rowSpanNnz is the paper's lest/uest bound for the block rows [r0, r1) ×
// columns [c0, c1) of d: each column is assumed dense between the minimum
// and the maximum row it holds inside the block.
func rowSpanNnz(d *sparse.CSC, r0, r1, c0, c1 int) int {
	total := 0
	for c := c0; c < c1; c++ {
		lo, hi := r1, r0-1
		for p := d.Colptr[c]; p < d.Colptr[c+1]; p++ {
			if i := d.Rowidx[p]; i >= r0 && i < r1 {
				lo, hi = min(lo, i), max(hi, i)
			}
		}
		if hi >= lo {
			total += hi - lo + 1
		}
	}
	return total
}

// reachBound estimates the nnz of an upper block U_leaf,k — rows [r0, r1)
// (the leaf) × columns [c0, c1) of d: each column's sparse triangular solve
// can fill at most up to the leaf's subtree column counts; bound by column
// count sums capped at the block area.
func reachBound(d *sparse.CSC, r0, r1, c0, c1 int, leafCounts []int) int {
	m := r1 - r0
	total := 0
	for c := c0; c < c1; c++ {
		span := 0
		for p := d.Colptr[c]; p < d.Colptr[c+1]; p++ {
			if i := d.Rowidx[p]; i >= r0 && i < r1 {
				span += leafCounts[i-r0]
			}
		}
		total += min(span, m)
	}
	return min(total, m*(c1-c0))
}
