package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gp"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// coldClass returns the Table I class name at the given scale, restamped
// once as the cold_factor benchmark does.
func coldClass(t testing.TB, name string, scale float64) *sparse.CSC {
	t.Helper()
	for ci, m := range matgen.TableISuite(scale) {
		if m.Name == name {
			return matgen.TransientStep(m.Gen(), 1, int64(ci))
		}
	}
	t.Fatalf("no class %s", name)
	return nil
}

// factorCSCs lists every L and U matrix a numeric holds: each diagonal
// block's factors and, in fine-ND blocks, the L and U coupling blocks.
func factorCSCs(num *Numeric) []*sparse.CSC {
	var out []*sparse.CSC
	for _, f := range num.small {
		if f != nil {
			out = append(out, f.L, f.U)
		}
	}
	for _, ndn := range num.nd {
		if ndn == nil {
			continue
		}
		for _, f := range ndn.diag {
			if f != nil {
				out = append(out, f.L, f.U)
			}
		}
		for i := range ndn.lower {
			for j := range ndn.lower[i] {
				for _, c := range []*sparse.CSC{ndn.lower[i][j], ndn.upper[i][j]} {
					if c != nil {
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// diagFactors lists the diagonal-block factors of a numeric, small blocks
// first, then every fine-ND diagonal in block order.
func diagFactors(num *Numeric) []*gp.Factors {
	var out []*gp.Factors
	for blk := 0; blk < num.Sym.NumBlocks(); blk++ {
		if f := num.small[blk]; f != nil {
			out = append(out, f)
		}
		if ndn := num.nd[blk]; ndn != nil {
			for _, f := range ndn.diag {
				if f != nil {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// factorBits is an FNV-64a over every diagonal block's P and the row
// indices and IEEE value bits of its L and U, and over the couplings'
// values: two numerics with equal digests hold the same factors bit for bit.
func factorBits(num *Numeric) string {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, f := range diagFactors(num) {
		for _, p := range f.P {
			word(uint64(p))
		}
		for _, c := range []*sparse.CSC{f.L, f.U} {
			for _, r := range c.Rowidx {
				word(uint64(r))
			}
		}
	}
	for _, c := range factorCSCs(num) {
		for _, v := range c.Values {
			word(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cscBytes is the storage a CSC's three slices hold, by capacity.
func cscBytes(c *sparse.CSC) uint64 {
	return 8 * uint64(cap(c.Colptr)+cap(c.Rowidx)+cap(c.Values))
}

// TestFreshFactorExactStorage pins what a fresh Factor retains: every L and
// U slice of every diagonal block and coupling has cap == len, and the
// factor-sized emission scratch is borrowed per block, so the workspaces
// the numeric keeps stay O(n).
func TestFreshFactorExactStorage(t *testing.T) {
	for _, name := range []string{"Power0", "Xyce1", "Freescale1", "Xyce3"} {
		for _, threads := range []int{1, 2} {
			a := coldClass(t, name, 0.25)
			opts := DefaultOptions()
			opts.Threads = threads
			sym, err := Analyze(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			num, err := Factor(a, sym)
			if err != nil {
				t.Fatal(err)
			}
			for k, c := range factorCSCs(num) {
				if cap(c.Colptr) != len(c.Colptr) || cap(c.Rowidx) != len(c.Rowidx) || cap(c.Values) != len(c.Values) {
					t.Fatalf("%s T%d: factor matrix %d keeps slack: rowidx %d/%d, values %d/%d", name, threads, k,
						len(c.Rowidx), cap(c.Rowidx), len(c.Values), cap(c.Values))
				}
			}
			var ws []*gp.Workspace
			ws = append(ws, num.factorWS...)
			for _, ndn := range num.nd {
				if ndn != nil {
					ws = append(ws, ndn.fws...)
				}
			}
			for _, w := range ws {
				if w != nil && len(w.X) > a.N {
					t.Fatalf("%s T%d: a retained workspace spans %d > n = %d", name, threads, len(w.X), a.N)
				}
			}
		}
	}
}

// TestFreshFactorAllocBudget pins the fresh path's allocation to what it
// keeps: once the emission scratch is warm, Factor allocates at most 1.3×
// the bytes its numeric retains (the heap it holds alive after two
// collections, which also free the idle emission scratch). The L and U storage is
// most of those bytes; before the ordered copy-out the ratio was ≈ 3.5× on
// Freescale1, whose L and U were each sized by the whole |L+U| estimate,
// then compacted. The measured call is the least of three, so a collection
// that frees the idle scratch between calls cannot fail it.
func TestFreshFactorAllocBudget(t *testing.T) {
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, name := range []string{"Power0", "Xyce1", "Freescale1"} {
		a := coldClass(t, name, 1)
		sym, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Factor(a, sym); err != nil {
			t.Fatal(err)
		}
		var alloc uint64
		var num *Numeric
		for r := 0; r < 3; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			num, err = Factor(a, sym)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if d := m1.TotalAlloc - m0.TotalAlloc; r == 0 || d < alloc {
				alloc = d
			}
		}
		withNum := heap()
		var lu uint64
		for _, c := range factorCSCs(num) {
			lu += cscBytes(c)
		}
		runtime.KeepAlive(num)
		num = nil
		kept := withNum - heap()
		runtime.KeepAlive(sym)
		ratio := float64(alloc) / float64(kept)
		t.Logf("%s: Factor allocates %d B, keeps %d B (%d B of L and U): %.2f×", name, alloc, kept, lu, ratio)
		if ratio > 1.3 {
			t.Fatalf("%s: Factor allocates %.2f× what it keeps (budget 1.3×)", name, ratio)
		}
	}
}

// TestFreshFactorConcurrentScratch runs fresh factorizations from eight
// goroutines at once, which share the pooled emission scratch: core.Factor
// with each goroutine's own analysis and core.FactorCtx on one shared
// analysis (what a Pool miss runs), four cold classes at Threads 1 and 2.
// Every result must hold the serial reference's factors bit for bit (P,
// L and U patterns, every value) and solve to a small residual. Run under
// -race it checks that no scratch is ever held by two goroutines.
func TestFreshFactorConcurrentScratch(t *testing.T) {
	type job struct {
		a    *sparse.CSC
		sym  *Symbolic
		opts Options
		want string
	}
	var jobs []job
	for _, name := range []string{"Power0", "asic_680ks", "Xyce1", "Freescale1"} {
		a := coldClass(t, name, 0.25)
		for _, threads := range []int{1, 2} {
			opts := DefaultOptions()
			opts.Threads = threads
			sym, err := Analyze(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Factor(a, sym)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{a, sym, opts, factorBits(ref)})
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(jobs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				jb := jobs[(k+g)%len(jobs)]
				var num *Numeric
				var err error
				if g%2 == 0 {
					var sym *Symbolic
					if sym, err = Analyze(jb.a, jb.opts); err == nil {
						num, err = Factor(jb.a, sym)
					}
				} else {
					num, err = FactorCtx(context.Background(), jb.a, jb.sym)
				}
				if err != nil {
					errs <- err
					continue
				}
				if got := factorBits(num); got != jb.want {
					errs <- fmt.Errorf("goroutine %d, job %d: factor bits %s, serial %s", g, k, got, jb.want)
				}
				if r := relResidual(jb.a, num, int64(g)); r > 1e-8 {
					errs <- fmt.Errorf("goroutine %d, job %d: residual %.3g", g, k, r)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
