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

// TestFactorNDOverlapsBTF proves the unified fresh-factorization scheduler
// runs fine-ND and fine-BTF blocks concurrently, mirroring the Refactor
// overlap proof: the ND block's factorization is made to wait for a small
// block to finish, and every small block's factorization waits for the ND
// block to start. Under the old two-phase sweep (WaitGroup barrier over the
// fine-BTF partition, then a serial loop over ND blocks) this deadlocks;
// under the unified point-to-point scheduler it completes. Channel-based,
// so the proof holds even on a single-core host.
func TestFactorNDOverlapsBTF(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randCircuit(rng, 400, 0.6)
	sym, err := Analyze(a, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if sym.NumNDBlocks() == 0 || sym.NumBlocks() == sym.NumNDBlocks() {
		t.Fatal("test matrix needs both ND and small blocks")
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
		t.Fatal("ND and fine-BTF factorizations did not overlap (scheduler is two-phase)")
	}
	solveCheck(t, a, num, 1e-7)
}

// TestFactorIntoMatchesFresh drives the pooled fresh-factorization path
// over a transient sequence: every FactorInto recycles the same storage,
// runs a genuinely fresh pivoting factorization, and must solve as
// accurately as a from-scratch Factor of the same matrix.
func TestFactorIntoMatchesFresh(t *testing.T) {
	suite := matgen.TableISuite(0.1)[:8]
	for _, m := range suite {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			base := m.Gen()
			opts := optsWithThreads(4)
			sym, err := Analyze(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			num, err := Factor(base, sym)
			if err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= 3; step++ {
				a := matgen.TransientStep(base, step, 4242)
				if err := num.FactorInto(a); err != nil {
					t.Fatalf("FactorInto step %d: %v", step, err)
				}
				fresh, err := Factor(a, sym)
				if err != nil {
					t.Fatalf("fresh factor step %d: %v", step, err)
				}
				if num.NnzLU() != fresh.NnzLU() {
					t.Fatalf("step %d: |L+U| %d through FactorInto, %d fresh", step, num.NnzLU(), fresh.NnzLU())
				}
				rres := relResidual(a, num, int64(step))
				fres := relResidual(a, fresh, int64(step))
				if rres > 1e-6 && rres > 100*fres {
					t.Fatalf("step %d: FactorInto residual %.3e, fresh %.3e", step, rres, fres)
				}
			}
		})
	}
}

// TestFactorIntoThenRefactor checks the two reuse paths compose: a pooled
// numeric refreshed by FactorInto (new pivots) must still support the
// fixed-pivot Refactor fast path afterwards, and vice versa.
func TestFactorIntoThenRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := randCircuit(rng, 350, 0.6)
	num, err := FactorDirect(base, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	a1 := matgen.TransientStep(base, 1, 7)
	if err := num.Refactor(a1); err != nil {
		t.Fatal(err)
	}
	a2 := matgen.TransientStep(base, 2, 7)
	if err := num.FactorInto(a2); err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a2, num, 1e-7)
	a3 := matgen.TransientStep(base, 3, 7)
	if err := num.Refactor(a3); err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a3, num, 1e-7)
}

// TestFactorIntoPatternMismatchRejected: the reuse path requires the
// analyzed pattern; anything else must fail loudly before touching state.
func TestFactorIntoPatternMismatchRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randCircuit(rng, 200, 0.5)
	num, err := FactorDirect(a, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	other := randCircuit(rng, 200, 0.5)
	if err := num.FactorInto(other); err == nil {
		t.Fatal("expected pattern mismatch error")
	}
	if err := num.FactorInto(sparse.NewCSC(3, 3, 0)); err == nil {
		t.Fatal("expected dimension error")
	}
	// The numeric still works on the analyzed pattern.
	if err := num.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a, num, 1e-7)
}

// TestFactorIntoRetryAfterFailure: a FactorInto defeated by singular values
// leaves the structure intact and a retry with good values must genuinely
// recompute, not report success over the failed sweep's values.
func TestFactorIntoRetryAfterFailure(t *testing.T) {
	// The point-to-point sweep is the only sync mode; the subtest keeps
	// its historical name.
	t.Run("p2p", func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		a := randCircuit(rng, 300, 0.6)
		num, err := FactorDirect(a, optsWithThreads(2))
		if err != nil {
			t.Fatal(err)
		}
		if num.Sym.NumNDBlocks() == 0 {
			t.Fatal("want an ND block so the ND retry path is exercised")
		}
		// Zero a column inside the ND block: singular, FactorInto fails.
		bad := a.Clone()
		ndBlk := -1
		for blk := 0; blk < num.Sym.NumBlocks(); blk++ {
			if num.Sym.IsND(blk) {
				ndBlk = blk
			}
		}
		r0, _ := num.Sym.BlockRange(ndBlk)
		ocol := num.Sym.ColPerm[r0]
		for p := bad.Colptr[ocol]; p < bad.Colptr[ocol+1]; p++ {
			bad.Values[p] = 0
		}
		if err := num.FactorInto(bad); err == nil {
			t.Fatal("expected singularity error")
		}
		// Retry with fresh values — must recompute for real.
		good := a.Clone()
		for p := range good.Values {
			good.Values[p] *= 1 + 0.2*rng.Float64()
		}
		if err := num.FactorInto(good); err != nil {
			t.Fatalf("retry after failure: %v", err)
		}
		solveCheck(t, good, num, 1e-7)
	})
}

// TestFactorRejectsForeignPattern: Factor gathers through the entry maps of
// the analyzed pattern, so a matrix of any other pattern is an error. The
// superset puts one entry below the BTF diagonal blocks, where it falls
// outside every block; both cases used to factor without an error.
func TestFactorRejectsForeignPattern(t *testing.T) {
	a := matgen.Circuit(matgen.CircuitParams{N: 600, BTFPct: 30, Blocks: 40, Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 7})
	sym, err := Analyze(a, optsWithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if sym.NumBlocks() < 2 {
		t.Fatal("no BTF split; test premise broken")
	}
	super := sparse.NewCOO(a.M, a.N, a.Nnz()+1)
	sub := sparse.NewCOO(a.M, a.N, a.Nnz())
	dropped := 0
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			super.Add(i, j, a.Values[p])
			if i != j && dropped < 12 && p%17 == 3 {
				dropped++
				continue
			}
			sub.Add(i, j, a.Values[p])
		}
	}
	// Permuted row N-1 lies in the last coarse block, permuted column 0 in
	// the first.
	super.Add(sym.RowPerm[a.N-1], sym.ColPerm[0], 1)
	for name, b := range map[string]*sparse.CSC{"superset": super.ToCSC(false), "subset": sub.ToCSC(false)} {
		if b.Nnz() == a.Nnz() {
			t.Fatalf("%s: pattern unchanged; test premise broken", name)
		}
		if _, err := Factor(b, sym); err == nil {
			t.Errorf("%s pattern: Factor returned a nil error", name)
		}
	}
}

// TestPrunedFactorEquivalenceCore sweeps the matrix-generator classes
// through the full solver with pruning on and off: pruning is purely
// symbolic (it shortens the searches, not the reach, and the elimination
// runs in ascending pivot order either way), so every factor bit is equal.
func TestPrunedFactorEquivalenceCore(t *testing.T) {
	suite := matgen.TableISuite(0.1)
	suite = append(suite, matgen.TableIISuite(0.12)...)
	for _, m := range suite {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			a := m.Gen()
			opts := optsWithThreads(4)
			pruned, err := FactorDirect(a, opts)
			if err != nil {
				t.Fatalf("pruned: %v", err)
			}
			opts.NoPrune = true
			plain, err := FactorDirect(a, opts)
			if err != nil {
				t.Fatalf("unpruned: %v", err)
			}
			if pruned.NnzLU() != plain.NnzLU() {
				t.Fatalf("|L+U| differs: pruned %d, unpruned %d", pruned.NnzLU(), plain.NnzLU())
			}
			if hp, hn := factorHash(pruned), factorHash(plain); hp != hn {
				t.Fatalf("factor bits differ: pruned %s, unpruned %s", hp, hn)
			}
		})
	}
}

// TestDenseKernelEquivalenceSuite sweeps every matrix-generator class
// through the full solver with the dense panel layer on and off
// (NoDenseKernels as the oracle): solve residuals must be on par, and
// wherever the sparse path's pivoting was deterministic — it kept every
// natural pivot, the diagonally dominant common case — the dense path must
// reproduce the pivot sequence exactly (the dense LU applies the same
// diagonal-preference rule). The suite scale is chosen so the fill-heavy
// classes actually tag separator kernels; the sweep asserts that, so the
// equivalence can never silently go vacuous.
func TestDenseKernelEquivalenceSuite(t *testing.T) {
	suite := matgen.TableISuite(0.25)
	suite = append(suite, matgen.TableIISuite(0.25)...)
	tagged := 0
	for _, m := range suite {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			a := m.Gen()
			opts := optsWithThreads(4)
			symD, err := Analyze(a, opts)
			if err != nil {
				t.Fatalf("dense analyze: %v", err)
			}
			tagged += symD.DenseKernels()
			numD, err := Factor(a, symD)
			if err != nil {
				t.Fatalf("dense factor: %v", err)
			}
			oOpts := opts
			oOpts.NoDenseKernels = true
			numS, err := FactorDirect(a, oOpts)
			if err != nil {
				t.Fatalf("sparse factor: %v", err)
			}
			dres := relResidual(a, numD, 1)
			sres := relResidual(a, numS, 1)
			if dres > 1e-6 && dres > 100*sres {
				t.Fatalf("dense-path residual %.3e, sparse %.3e", dres, sres)
			}
			// Pivot determinism: per fine-ND diagonal block, if the sparse
			// path chose the natural pivot everywhere, so must the dense path.
			for blk := range numS.nd {
				if numS.nd[blk] == nil {
					continue
				}
				for b, fs := range numS.nd[blk].diag {
					if fs == nil {
						continue
					}
					natural := true
					for k, p := range fs.P {
						if p != k {
							natural = false
							break
						}
					}
					if !natural {
						continue
					}
					fd := numD.nd[blk].diag[b]
					for k, p := range fd.P {
						if p != k {
							t.Fatalf("nd block %d diag %d: sparse pivots are natural, dense path deviates at step %d (row %d)", blk, b, k, p)
						}
					}
				}
			}
		})
	}
	if tagged == 0 {
		t.Error("no suite matrix tagged a dense kernel; the equivalence sweep is vacuous")
	}
}

// TestFactorCompactsFreshStorage: a fresh Factor hands back factors clipped
// to their exact length (the 2x symbolic estimate slack is released), while
// the pooled FactorInto path deliberately keeps its slack.
func TestFactorCompactsFreshStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randCircuit(rng, 300, 0.6)
	num, err := FactorDirect(a, optsWithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	for blk, f := range num.small {
		if f == nil {
			continue
		}
		if cap(f.L.Values) != len(f.L.Values) || cap(f.U.Values) != len(f.U.Values) {
			t.Fatalf("small block %d not compacted: L %d/%d U %d/%d", blk,
				len(f.L.Values), cap(f.L.Values), len(f.U.Values), cap(f.U.Values))
		}
	}
	for blk, ndn := range num.nd {
		if ndn == nil {
			continue
		}
		for _, f := range ndn.diag {
			if f != nil && (cap(f.L.Values) != len(f.L.Values) || cap(f.U.Values) != len(f.U.Values)) {
				t.Fatalf("nd block %d diag factor not compacted", blk)
			}
		}
	}
}
