// Package matgen generates the synthetic workloads for every experiment in
// the paper. The originals come from the University of Florida collection
// and Sandia's Xyce simulator; neither ships with this repository, so each
// matrix is replaced by a generator that reproduces the *structural
// statistics Basker's behaviour depends on* — dimension (scaled down),
// nonzeros per row, the share of rows in small BTF blocks (Table I's BTF%),
// the number of BTF blocks, and the fill-in density class — as recorded in
// Table I/II of the paper.
//
// Every product that meets an addition is written float64(a*b), and
// rng.Float64() is wrapped in float64(...) where its inlined scaling would
// otherwise fuse with the caller's arithmetic: an explicit conversion
// forbids a fused multiply-add, so the values (and every golden built from
// them) are the same bits on amd64 and arm64.
package matgen

import (
	"math"
	"math/rand"

	"repro/internal/sparse"
)

// CoreKind selects the topology of a matrix's large strongly connected
// block, which controls its fill-in density class.
type CoreKind int

const (
	// CoreLadder is a low fill-in circuit-like core: ring + ladder rungs +
	// sparse random stamps (fill density < 4 under AMD).
	CoreLadder CoreKind = iota
	// CoreGrid is a 2D 5-point stencil core (moderate fill).
	CoreGrid
	// CoreGrid3D is a 3D 7-point stencil core (high fill, the G2_Circuit /
	// twotone / onetone class).
	CoreGrid3D
)

// CircuitParams parametrizes a synthetic circuit/powergrid matrix.
type CircuitParams struct {
	// N is the dimension.
	N int
	// BTFPct is the percentage (0..100) of rows living in small diagonal
	// blocks after BTF (Table I's "BTF %" column).
	BTFPct float64
	// Blocks is the approximate number of small BTF blocks.
	Blocks int
	// Core selects the fill class of the single large block.
	Core CoreKind
	// ExtraDensity adds random entries inside the core (per row).
	ExtraDensity float64
	// Seed makes generation deterministic.
	Seed int64
}

// Circuit generates a nonsingular circuit-like matrix: one strongly
// connected core of size (1-BTFPct/100)·N plus ~Blocks small strongly
// connected subcircuits, with sparse strictly-upper coupling so the BTF is
// exactly this block structure.
func Circuit(p CircuitParams) *sparse.CSC {
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.N
	coo := sparse.NewCOO(n, n, 8*n)
	// Dominant diagonal keeps every matrix numerically comfortable.
	for i := 0; i < n; i++ {
		coo.Add(i, i, 8+float64(2*float64(rng.Float64())))
	}
	coreN := int((1 - p.BTFPct/100) * float64(n))
	if coreN > n {
		coreN = n
	}
	if coreN >= 2 {
		genCore(coo, rng, 0, coreN, p.Core, p.ExtraDensity)
	}
	// Small blocks: sizes 1..6, strongly connected via internal rings.
	i := coreN
	blocks := p.Blocks
	if blocks < 1 {
		blocks = 1
	}
	avg := float64(n-coreN) / float64(blocks)
	for i < n {
		size := 1
		if avg > 1 {
			size = 1 + rng.Intn(int(2*avg))
		}
		if i+size > n {
			size = n - i
		}
		for k := 0; k < size; k++ {
			next := i + (k+1)%size
			if next != i+k {
				coo.Add(next, i+k, 0.5+float64(rng.Float64()))
			}
		}
		i += size
	}
	// Sparse strictly upper coupling, banded so it contributes little fill
	// inside the diagonal blocks while still coupling consecutive BTF
	// blocks (upper block triangular entries).
	for e := 0; e < n; e++ {
		r := rng.Intn(n)
		c := r + 1 + rng.Intn(12)
		if c < n {
			coo.Add(r, c, 0.3*rng.NormFloat64())
		}
	}
	return coo.ToCSC(false)
}

// genCore stamps a strongly connected core of the requested kind over rows
// [lo, lo+size).
func genCore(coo *sparse.COO, rng *rand.Rand, lo, size int, kind CoreKind, extra float64) {
	// A ring makes the block strongly connected regardless of kind.
	for k := 0; k < size; k++ {
		coo.Add(lo+(k+1)%size, lo+k, 1+float64(0.5*rng.Float64()))
	}
	switch kind {
	case CoreLadder:
		// Ladder rungs and sparse stamps: low fill under AMD.
		for k := 0; k+7 < size; k++ {
			if rng.Float64() < 0.7 {
				coo.Add(lo+k, lo+k+7, rng.NormFloat64())
				coo.Add(lo+k+7, lo+k, rng.NormFloat64())
			}
		}
	case CoreGrid:
		side := int(math.Sqrt(float64(size)))
		if side < 2 {
			side = 2
		}
		id := func(i, j int) int { return lo + (i*side+j)%size }
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				if i > 0 {
					coo.Add(id(i, j), id(i-1, j), -1+float64(0.1*rng.NormFloat64()))
				}
				if j > 0 {
					coo.Add(id(i, j), id(i, j-1), -1+float64(0.1*rng.NormFloat64()))
				}
				if i < side-1 {
					coo.Add(id(i, j), id(i+1, j), -1+float64(0.1*rng.NormFloat64()))
				}
				if j < side-1 {
					coo.Add(id(i, j), id(i, j+1), -1+float64(0.1*rng.NormFloat64()))
				}
			}
		}
	case CoreGrid3D:
		side := int(math.Cbrt(float64(size)))
		if side < 2 {
			side = 2
		}
		id := func(i, j, k int) int { return lo + ((i*side+j)*side+k)%size }
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				for k := 0; k < side; k++ {
					if i > 0 {
						coo.Add(id(i, j, k), id(i-1, j, k), -1+float64(0.1*rng.NormFloat64()))
					}
					if j > 0 {
						coo.Add(id(i, j, k), id(i, j-1, k), -1+float64(0.1*rng.NormFloat64()))
					}
					if k > 0 {
						coo.Add(id(i, j, k), id(i, j, k-1), -1+float64(0.1*rng.NormFloat64()))
					}
					if i < side-1 {
						coo.Add(id(i, j, k), id(i+1, j, k), -1+float64(0.1*rng.NormFloat64()))
					}
					if j < side-1 {
						coo.Add(id(i, j, k), id(i, j+1, k), -1+float64(0.1*rng.NormFloat64()))
					}
					if k < side-1 {
						coo.Add(id(i, j, k), id(i, j, k+1), -1+float64(0.1*rng.NormFloat64()))
					}
				}
			}
		}
	}
	// Extra stamps stay within a local band: real circuit matrices have
	// strong locality, which is what keeps their fill-in density low.
	const band = 12
	stamp := func(k int) {
		d := 1 + rng.Intn(band)
		i := k - d
		if rng.Float64() < 0.5 {
			i = k + d
		}
		if i >= 0 && i < size {
			coo.Add(lo+i, lo+k, 0.3*rng.NormFloat64())
		}
	}
	for k := 0; k < size; k++ {
		for e := 0; e < int(extra); e++ {
			stamp(k)
		}
		if f := extra - math.Floor(extra); rng.Float64() < f {
			stamp(k)
		}
	}
}

// Mesh2D builds the k×k 5-point stencil matrix with a slight unsymmetric
// perturbation (a 2D PDE discretization, Table II class).
func Mesh2D(k int, seed int64) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed))
	n := k * k
	coo := sparse.NewCOO(n, n, 5*n)
	id := func(i, j int) int { return i*k + j }
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := id(i, j)
			coo.Add(v, v, 4+float64(0.1*rng.Float64()))
			if i > 0 {
				coo.Add(v, id(i-1, j), -1+float64(0.05*rng.NormFloat64()))
			}
			if i < k-1 {
				coo.Add(v, id(i+1, j), -1+float64(0.05*rng.NormFloat64()))
			}
			if j > 0 {
				coo.Add(v, id(i, j-1), -1+float64(0.05*rng.NormFloat64()))
			}
			if j < k-1 {
				coo.Add(v, id(i, j+1), -1+float64(0.05*rng.NormFloat64()))
			}
		}
	}
	return coo.ToCSC(false)
}

// Mesh3D builds the k×k×k 7-point stencil matrix (3D finite differences).
func Mesh3D(k int, seed int64) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed))
	n := k * k * k
	coo := sparse.NewCOO(n, n, 7*n)
	id := func(i, j, l int) int { return (i*k+j)*k + l }
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			for l := 0; l < k; l++ {
				v := id(i, j, l)
				coo.Add(v, v, 6+float64(0.1*rng.Float64()))
				if i > 0 {
					coo.Add(v, id(i-1, j, l), -1+float64(0.05*rng.NormFloat64()))
				}
				if i < k-1 {
					coo.Add(v, id(i+1, j, l), -1+float64(0.05*rng.NormFloat64()))
				}
				if j > 0 {
					coo.Add(v, id(i, j-1, l), -1+float64(0.05*rng.NormFloat64()))
				}
				if j < k-1 {
					coo.Add(v, id(i, j+1, l), -1+float64(0.05*rng.NormFloat64()))
				}
				if l > 0 {
					coo.Add(v, id(i, j, l-1), -1+float64(0.05*rng.NormFloat64()))
				}
				if l < k-1 {
					coo.Add(v, id(i, j, l+1), -1+float64(0.05*rng.NormFloat64()))
				}
			}
		}
	}
	return coo.ToCSC(false)
}

// PowerGrid builds a transmission-network-like matrix: 100% of rows in
// small BTF blocks (the RS_b39c30 / Power0 class of Table I).
func PowerGrid(n int, blocks int, seed int64) *sparse.CSC {
	return Circuit(CircuitParams{
		N:      n,
		BTFPct: 100,
		Blocks: blocks,
		Seed:   seed,
	})
}

// TransientStep produces the t-th matrix of a Xyce-style transient
// sequence: identical pattern to base, values modulated deterministically
// (device states change every Newton iteration while the connectivity is
// fixed). Diagonal entries stay dominant so a fixed pivot sequence remains
// numerically viable, matching the refactorization workflow.
func TransientStep(base *sparse.CSC, t int, seed int64) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed + int64(t)*1000003))
	out := base.Clone()
	phase := float64(float64(t) * 0.05)
	for j := 0; j < out.N; j++ {
		for p := out.Colptr[j]; p < out.Colptr[j+1]; p++ {
			f := 1 + float64(0.4*math.Sin(phase+float64(float64(j)*0.01))) + float64(0.1*rng.NormFloat64())
			if out.Rowidx[p] == j {
				// Keep diagonals bounded away from zero.
				if f < 0.3 {
					f = 0.3
				}
			}
			out.Values[p] *= f
		}
	}
	return out
}

// PerturbColumns produces a transient step that touches only the listed
// columns: the returned matrix has base's pattern, values in cols modulated
// with TransientStep's stamping semantics (diagonals bounded away from
// zero), and every other column bitwise identical to base — the localized
// device-stamp perturbation the incremental refactorization path is built
// for. Steps generated from one base with the same cols differ from each
// other only inside cols.
func PerturbColumns(base *sparse.CSC, cols []int, t int, seed int64) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed + int64(t)*1000003))
	out := base.Clone()
	phase := float64(float64(t) * 0.05)
	for _, j := range cols {
		for p := out.Colptr[j]; p < out.Colptr[j+1]; p++ {
			f := 1 + float64(0.4*math.Sin(phase+float64(float64(j)*0.01))) + float64(0.1*rng.NormFloat64())
			if out.Rowidx[p] == j && f < 0.3 {
				f = 0.3
			}
			out.Values[p] *= f
		}
	}
	return out
}

// ChangeSet returns a deterministic set of max(1, frac·n) column indices.
// clustered picks a contiguous run at a seed-dependent offset — the shape
// of a localized device perturbation, which graph-locality-preserving
// orderings keep confined to few blocks — while scattered draws a uniform
// subset, the adversarial spread for change-set-aware refactorization.
func ChangeSet(n int, frac float64, seed int64, clustered bool) []int {
	k := int(float64(frac*float64(n)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	cols := make([]int, k)
	if clustered {
		start := rng.Intn(n - k + 1)
		for i := range cols {
			cols[i] = start + i
		}
		return cols
	}
	copy(cols, rng.Perm(n)[:k])
	return cols
}
