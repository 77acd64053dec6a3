package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// denseBlockCSC builds an n×n diagonally dominant matrix dense enough that
// the whole fine-ND block (a single tree node under Threads=1) crosses the
// dense-kernel threshold.
func denseBlockCSC(rng *rand.Rand, n int, fill float64) *sparse.CSC {
	coo := sparse.NewCOO(n, n, int(float64(n*n)*fill)+n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 15+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < fill {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSC(false)
}

// grid3dCircuit builds a circuit matrix whose large SCC is the 3D-stencil
// core (the G2_Circuit / twotone fill class) with btfPct percent of rows in
// small BTF blocks — the shape that produces dense-tagged separator kernels
// next to a fine-BTF partition.
func grid3dCircuit(n int, btfPct float64, seed int64) *sparse.CSC {
	return matgen.Circuit(matgen.CircuitParams{
		N: n, BTFPct: btfPct, Blocks: 1 + n/50,
		Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: seed,
	})
}

// TestDenseKernelTagging checks the Analyze-time classification across the
// threshold's edge values: the default tags the fill-heavy separators, a
// tiny threshold tags at least as much, 1 keeps only (estimated) fully
// dense kernels, thresholds above 1 and the NoDenseKernels ablation tag
// nothing.
func TestDenseKernelTagging(t *testing.T) {
	a := grid3dCircuit(900, 0, 71)
	count := func(mod func(*Options)) int {
		opts := optsWithThreads(4)
		if mod != nil {
			mod(&opts)
		}
		sym, err := Analyze(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sym.DenseKernels()
	}
	def := count(nil)
	if def == 0 {
		t.Fatal("default threshold tags nothing on a 3D-stencil core")
	}
	tiny := count(func(o *Options) { o.DenseKernelThreshold = 1e-9 })
	if tiny < def {
		t.Fatalf("tiny threshold tags %d kernels, fewer than default's %d", tiny, def)
	}
	one := count(func(o *Options) { o.DenseKernelThreshold = 1 })
	if one == 0 || one > def {
		t.Fatalf("threshold 1 tags %d kernels (default %d); separator estimates saturate the clamp", one, def)
	}
	if n := count(func(o *Options) { o.DenseKernelThreshold = 2 }); n != 0 {
		t.Fatalf("threshold 2 tags %d kernels, want 0", n)
	}
	if n := count(func(o *Options) { o.NoDenseKernels = true }); n != 0 {
		t.Fatalf("NoDenseKernels tags %d kernels, want 0", n)
	}
	// The low-fill regime the paper targets must stay untagged under the
	// default threshold — that is the "adaptive" in density-adaptive.
	low := matgen.Circuit(matgen.CircuitParams{N: 900, BTFPct: 0, Blocks: 1, Core: matgen.CoreLadder, Seed: 72})
	sym, err := Analyze(low, optsWithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if n := sym.DenseKernels(); n != 0 {
		t.Fatalf("low-fill ladder core tags %d dense kernels under the default threshold", n)
	}
}

// TestFactorDenseNDOverlapsBTF mirrors TestFactorNDOverlapsBTF on a matrix
// whose fine-ND hierarchy carries dense-tagged kernels: the dense panel
// layer must ride the same unified scheduler, with the ND block's
// (dense-path) factorization overlapping the fine-BTF sweep on the epoch
// fabric rather than running in a separate phase.
func TestFactorDenseNDOverlapsBTF(t *testing.T) {
	a := grid3dCircuit(700, 40, 71)
	sym, err := Analyze(a, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if sym.NumNDBlocks() == 0 || sym.NumBlocks() == sym.NumNDBlocks() {
		t.Fatal("test matrix needs both ND and small blocks")
	}
	if sym.DenseKernels() == 0 {
		t.Fatal("test matrix tagged no dense kernels; overlap proof would be vacuous")
	}
	const wait = 10 * time.Second
	ndStarted := make(chan struct{})
	smallDone := make(chan struct{})
	var ndOnce, smOnce sync.Once
	var timedOut atomic.Bool
	hooks := &schedHooks{
		blockStart: func(blk int, nd bool) {
			if nd {
				ndOnce.Do(func() { close(ndStarted) })
				select {
				case <-smallDone:
				case <-time.After(wait):
					timedOut.Store(true)
				}
			} else {
				select {
				case <-ndStarted:
				case <-time.After(wait):
					timedOut.Store(true)
				}
			}
		},
		blockDone: func(blk int, nd bool) {
			if !nd {
				smOnce.Do(func() { close(smallDone) })
			}
		},
	}
	num, err := factorFresh(context.Background(), a, sym, hooks)
	if err != nil {
		t.Fatal(err)
	}
	num.hooks = nil
	if timedOut.Load() {
		t.Fatal("dense-ND and fine-BTF factorizations did not overlap (scheduler is two-phase)")
	}
	solveCheck(t, a, num, 1e-7)

	// The pivot-drift fallback path must also stay on the dense layer: make
	// the reused pivot of the ND block's first column exactly zero while
	// boosting an alternative row in the same leaf, so Refactor's per-block
	// fallback rebuilds the dense-tagged hierarchy with fresh pivots.
	if err := num.Refactor(a); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	drift := a.Clone()
	for i := range drift.Values {
		drift.Values[i] *= 1 + 0.3*rng.Float64()
	}
	ndBlk := -1
	for blk := 0; blk < sym.NumBlocks(); blk++ {
		if sym.IsND(blk) {
			ndBlk = blk
		}
	}
	r0, _ := sym.BlockRange(ndBlk)
	old := num.nd[ndBlk]
	pivLocal := old.diag[0].P[0] // leaf node 0 starts at ND-local offset 0
	ocol := sym.ColPerm[r0]
	rowPos := make([]int, sym.N) // original row -> permuted position
	for k, r := range sym.RowPerm {
		rowPos[r] = k
	}
	b0, b1 := old.sym.blockRange(0)
	zeroed, boosted := false, false
	for p := drift.Colptr[ocol]; p < drift.Colptr[ocol+1]; p++ {
		k := rowPos[drift.Rowidx[p]] - r0
		if k < b0 || k >= b1 {
			continue
		}
		if k == pivLocal {
			drift.Values[p] = 0
			zeroed = true
		} else if !boosted {
			drift.Values[p] = 50
			boosted = true
		}
	}
	if !zeroed || !boosted {
		t.Fatalf("test premise broken: leaf column needs a pivot to zero and an alternative row (zeroed=%v boosted=%v)", zeroed, boosted)
	}
	if err := num.Refactor(drift); err != nil {
		t.Fatalf("refactor with drifted pivot: %v", err)
	}
	if num.nd[ndBlk] == old {
		t.Fatal("expected the pivot-drift fallback to rebuild the ND hierarchy")
	}
	solveCheck(t, drift, num, 1e-7)
}

// TestRefactorDenseZeroAllocSteadyState pins the dense-path steady state:
// a serial Refactor of a numeric whose fine-ND block went through the dense
// panel kernels performs zero allocations, exactly like the sparse path —
// the dense layer lives entirely in pooled panels and recycled factor
// storage.
func TestRefactorDenseZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	base := denseBlockCSC(rng, 160, 0.3)
	opts := optsWithThreads(1)
	sym, err := Analyze(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sym.DenseKernels() == 0 {
		t.Fatal("want a dense-tagged kernel in the zero-alloc sweep")
	}
	num, err := Factor(base, sym)
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]*sparse.CSC, 4)
	for i := range steps {
		steps[i] = matgen.TransientStep(base, i+1, 76)
	}
	for _, s := range steps {
		if err := num.Refactor(s); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := num.Refactor(steps[i%len(steps)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state dense-path Refactor allocates: %v allocs/op", allocs)
	}
	solveCheck(t, steps[i%len(steps)], num, 1e-7)

	// The pooled fresh factorization runs the same walk with pivoting
	// kernels and recycles the whole hierarchy, so it is allocation-free as
	// well, with the dense layer (pooled panels and factor storage) on or
	// off.
	steady := func(n *Numeric) float64 {
		for _, s := range steps {
			if err := n.FactorInto(s); err != nil {
				t.Fatal(err)
			}
		}
		j := 0
		return testing.AllocsPerRun(20, func() {
			j++
			if err := n.FactorInto(steps[j%len(steps)]); err != nil {
				t.Fatal(err)
			}
		})
	}
	denseAllocs := steady(num)
	oopts := opts
	oopts.NoDenseKernels = true
	osym, err := Analyze(base, oopts)
	if err != nil {
		t.Fatal(err)
	}
	onum, err := Factor(base, osym)
	if err != nil {
		t.Fatal(err)
	}
	if sparseAllocs := steady(onum); denseAllocs != 0 || sparseAllocs != 0 {
		t.Fatalf("steady-state FactorInto allocates: dense path %v/op, sparse path %v/op", denseAllocs, sparseAllocs)
	}
}

// BenchmarkFactorDenseND compares the pooled fresh factorization of a
// high-fill 3D-stencil matrix with the dense panel layer on (tagged) and
// off (the NoDenseKernels ablation).
func BenchmarkFactorDenseND(b *testing.B) {
	var g2 matgen.Named
	for _, m := range matgen.TableISuite(0.5) {
		if m.Name == "G2_Circuit" {
			g2 = m
		}
	}
	a := g2.Gen()
	for _, cfg := range []struct {
		name    string
		noDense bool
	}{{"dense", false}, {"nodense", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := optsWithThreads(4)
			opts.NoDenseKernels = cfg.noDense
			sym, err := Analyze(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !cfg.noDense && sym.DenseKernels() == 0 {
				b.Fatal("no dense kernels tagged on the G2_Circuit replica")
			}
			num, err := Factor(a, sym)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := num.FactorInto(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
