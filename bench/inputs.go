package main

import (
	"math/rand"

	basker "repro"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// sizing holds every dimension a workload is built from. Structure —
// sparsity patterns, stamp windows, the request mix — is fixed by the
// workload definition; the seed draws the numbers (matrix values,
// right-hand sides, triplet and request order). Ten runs with ten seeds
// therefore do the same amount of work on different data, which is what
// lets a run-to-run spread be read as noise.
type sizing struct {
	xyceN, xyceBlocks int     // Xyce1-class transient pattern
	gridN             int     // G2_Circuit-class fill-heavy pattern
	coldScale         float64 // matgen suite scale of the cold_factor classes
	serveN            [3]int  // Xyce1-class served patterns
	serveGridN        int     // hcircuit-class served pattern
	denseN            int     // dense kernel probe order
}

var (
	fullSize  = sizing{xyceN: 30000, xyceBlocks: 1000, gridN: 2700, coldScale: 1.0, serveN: [3]int{3000, 6000, 10000}, serveGridN: 4800, denseN: 256}
	smokeSize = sizing{xyceN: 1500, xyceBlocks: 50, gridN: 512, coldScale: 0.25, serveN: [3]int{300, 600, 1000}, serveGridN: 480, denseN: 64}
)

// Pattern seeds are the ones matgen's own Table I replicas use for the
// same classes.
const (
	xyceSeed     = 111 // Xyce1
	gridSeed     = 120 // G2_Circuit
	hcircuitSeed = 117 // hcircuit
)

func xycePattern(n, blocks int) *sparse.CSC {
	return matgen.Circuit(matgen.CircuitParams{N: n, BTFPct: 21, Blocks: blocks, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: xyceSeed})
}

func gridPattern(n int) *sparse.CSC {
	return matgen.Circuit(matgen.CircuitParams{N: n, Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: gridSeed})
}

func hcircuitPattern(n int) *sparse.CSC {
	return matgen.Circuit(matgen.CircuitParams{N: n, BTFPct: 13, Blocks: n / 60, Core: matgen.CoreGrid, ExtraDensity: 0.3, Seed: hcircuitSeed})
}

// stepValues returns the value vectors of k transient steps on base's
// pattern.
func stepValues(base *sparse.CSC, k int, seed int64) [][]float64 {
	out := make([][]float64, k)
	for t := range out {
		out[t] = matgen.TransientStep(base, t+1, seed).Values
	}
	return out
}

func rhsSet(n, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, k)
	for i := range out {
		b := make([]float64, n)
		for j := range b {
			b[j] = rng.NormFloat64()
		}
		out[i] = b
	}
	return out
}

// withValues is a's pattern carrying vals: the shallow view a caller that
// owns one value vector per step hands to the solver.
func withValues(a *sparse.CSC, vals []float64) *sparse.CSC {
	return &sparse.CSC{M: a.M, N: a.N, Colptr: a.Colptr, Rowidx: a.Rowidx, Values: vals}
}

// columnsOf expands a CSC column pointer into one column index per entry —
// with Rowidx, the coordinate form of the pattern.
func columnsOf(a *sparse.CSC) []int {
	cols := make([]int, len(a.Rowidx))
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			cols[p] = j
		}
	}
	return cols
}

// assemble builds an n×n matrix from triplets through the public
// accumulator, as a caller stamping devices does.
func assemble(n int, rows, cols []int, vals []float64) *basker.Matrix {
	tr := basker.NewTriplets(n, n)
	for k, v := range vals {
		tr.Add(rows[k], cols[k], v)
	}
	return tr.Matrix()
}

// localStamps is the xyce_local input: fixed windows of contiguous columns
// (1 % of the matrix each, the shape of one restamped device cluster) and,
// per window, a few value sets for exactly those columns. Op i restamps
// window i mod W, so every timed segment visits every window equally often
// and the op-time distribution does not depend on where a segment started.
type localStamps struct {
	lo, hi []int         // value range [lo, hi) of each window in CSC order
	vals   [][][]float64 // [window][step] values for that range
}

// An odd window count keeps the median op inside one window's cluster of
// timings rather than on the edge between two.
const (
	localWindows = 9
	localSteps   = 4
)

func newLocalStamps(base *sparse.CSC, seed int64) *localStamps {
	l := &localStamps{}
	for w := 0; w < localWindows; w++ {
		cols := matgen.ChangeSet(base.N, 0.01, int64(w+1), true)
		lo, hi := base.Colptr[cols[0]], base.Colptr[cols[len(cols)-1]+1]
		l.lo, l.hi = append(l.lo, lo), append(l.hi, hi)
		steps := make([][]float64, localSteps)
		for s := range steps {
			m := matgen.PerturbColumns(base, cols, s+1, seed+int64(w)*7919)
			steps[s] = append([]float64(nil), m.Values[lo:hi]...)
		}
		l.vals = append(l.vals, steps)
	}
	return l
}

func (l *localStamps) apply(a *sparse.CSC, i int) {
	w := i % len(l.lo)
	s := (i / len(l.lo)) % len(l.vals[w])
	copy(a.Values[l.lo[w]:l.hi[w]], l.vals[w][s])
}
