// Benchmarks regenerating the measurements behind every table and figure of
// the paper, as testing.B benchmarks (the cmd/baskerbench harness prints
// the full formatted tables; these benches integrate with `go test -bench`).
//
// Naming: BenchmarkTable1_*, BenchmarkTable2_*, BenchmarkFig5_*, ... map to
// the paper's tables and figures. Numeric factorization only, like the
// paper, timed by the wall clock on the host's own cores. BENCH_SCALE can
// shrink the workloads (default 0.5).
package basker

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/klu"
	"repro/internal/matgen"
	"repro/internal/pmkl"
	"repro/internal/slumt"
	"repro/internal/sparse"
)

func benchScale() float64 {
	if v := os.Getenv("BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.5
}

func suiteMatrix(b *testing.B, name string) *sparse.CSC {
	for _, m := range matgen.TableISuite(benchScale()) {
		if m.Name == name {
			return m.Gen()
		}
	}
	b.Fatalf("unknown suite matrix %q", name)
	return nil
}

func benchKLU(b *testing.B, a *sparse.CSC) {
	sym, err := klu.Analyze(a, klu.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := klu.Factor(a, sym); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Nnz()), "nnz")
}

// benchBasker times the fresh numeric factorization and reports, as
// sync-wait-ms, the last one's blocked point-to-point wait summed over
// workers — the §IV synchronization cost. The paper's global-barrier
// comparison is cited, not rerun.
func benchBasker(b *testing.B, a *sparse.CSC, threads int, mod func(*core.Options)) {
	opts := core.DefaultOptions()
	opts.Threads = threads
	if mod != nil {
		mod(&opts)
	}
	sym, err := core.Analyze(a, opts)
	if err != nil {
		b.Fatal(err)
	}
	var wait float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		num, err := core.Factor(a, sym)
		if err != nil {
			b.Fatal(err)
		}
		wait = num.SyncWaitSeconds()
	}
	b.ReportMetric(wait*1e3, "sync-wait-ms")
}

func benchPMKL(b *testing.B, a *sparse.CSC, threads int) {
	opts := pmkl.DefaultOptions()
	opts.Threads = threads
	sym, err := pmkl.Analyze(a, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmkl.Factor(a, sym); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table I: factor-size and numeric-factor cost per suite matrix ----

func BenchmarkTable1_KLU(b *testing.B) {
	for _, m := range matgen.TableISuite(benchScale()) {
		a := m.Gen()
		b.Run(m.Name, func(b *testing.B) { benchKLU(b, a) })
	}
}

func BenchmarkTable1_Basker8(b *testing.B) {
	for _, m := range matgen.TableISuite(benchScale()) {
		a := m.Gen()
		b.Run(m.Name, func(b *testing.B) { benchBasker(b, a, 8, nil) })
	}
}

func BenchmarkTable1_PMKL8(b *testing.B) {
	for _, m := range matgen.TableISuite(benchScale()) {
		a := m.Gen()
		b.Run(m.Name, func(b *testing.B) { benchPMKL(b, a, 8) })
	}
}

// ---- Table II: the mesh suite (PMKL's ideal inputs) ----

func BenchmarkTable2_PMKL(b *testing.B) {
	for _, m := range matgen.TableIISuite(benchScale()) {
		a := m.Gen()
		b.Run(m.Name, func(b *testing.B) { benchPMKL(b, a, 8) })
	}
}

// ---- Figure 5: raw time, three solvers on the six-matrix subset ----

func BenchmarkFig5(b *testing.B) {
	for _, m := range matgen.Fig5Subset(benchScale()) {
		a := m.Gen()
		for _, cores := range []int{1, 8, 16} {
			b.Run(fmt.Sprintf("%s/basker-%d", m.Name, cores), func(b *testing.B) {
				benchBasker(b, a, cores, nil)
			})
			b.Run(fmt.Sprintf("%s/pmkl-%d", m.Name, cores), func(b *testing.B) {
				benchPMKL(b, a, cores)
			})
			b.Run(fmt.Sprintf("%s/slumt-%d", m.Name, cores), func(b *testing.B) {
				sym, err := pmkl.Analyze(a, pmkl.Options{Threads: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := slumt.FactorWithSymbolic(a, sym, slumt.Options{Threads: cores}); err != nil {
						b.Skip("slumt failed (matches the paper's rajat21 failure)")
					}
				}
			})
		}
	}
}

// ---- Figure 6: core sweep for the speedup-vs-KLU plots ----

func BenchmarkFig6_Basker(b *testing.B) {
	for _, m := range matgen.Fig5Subset(benchScale()) {
		a := m.Gen()
		for _, cores := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/p%d", m.Name, cores), func(b *testing.B) {
				benchBasker(b, a, cores, nil)
			})
		}
	}
}

func BenchmarkFig6_PMKL(b *testing.B) {
	for _, m := range matgen.Fig5Subset(benchScale()) {
		a := m.Gen()
		for _, cores := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/p%d", m.Name, cores), func(b *testing.B) {
				benchPMKL(b, a, cores)
			})
		}
	}
}

// ---- Figure 7: the performance-profile inputs (per-solver suite sweep) ----

func BenchmarkFig7_Serial(b *testing.B) {
	for _, m := range matgen.TableISuite(benchScale())[:8] { // representative slice
		a := m.Gen()
		b.Run(m.Name+"/klu", func(b *testing.B) { benchKLU(b, a) })
		b.Run(m.Name+"/basker", func(b *testing.B) { benchBasker(b, a, 1, nil) })
		b.Run(m.Name+"/pmkl", func(b *testing.B) { benchPMKL(b, a, 1) })
	}
}

// ---- Figure 8: self-relative scaling on ideal inputs ----

func BenchmarkFig8_BaskerIdeal(b *testing.B) {
	for _, m := range matgen.BaskerIdealSubset(benchScale())[:3] {
		a := m.Gen()
		for _, cores := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/p%d", m.Name, cores), func(b *testing.B) {
				benchBasker(b, a, cores, nil)
			})
		}
	}
}

func BenchmarkFig8_PMKLIdeal(b *testing.B) {
	for _, m := range matgen.TableIISuite(benchScale())[:3] {
		a := m.Gen()
		for _, cores := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/p%d", m.Name, cores), func(b *testing.B) {
				benchPMKL(b, a, cores)
			})
		}
	}
}

// ---- §V-F: the Xyce transient sequence (refactorization path) ----

func BenchmarkXyceSequence(b *testing.B) {
	base := matgen.XyceSequenceBase(benchScale())
	const steps = 20
	mats := make([]*sparse.CSC, steps)
	for t := range mats {
		mats[t] = matgen.TransientStep(base, t, 777)
	}
	b.Run("basker-refactor", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.Threads = 8
		num, err := core.FactorDirect(mats[0], opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := num.Refactor(mats[1+i%(steps-1)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("klu-refactor", func(b *testing.B) {
		num, err := klu.FactorDirect(mats[0], klu.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := num.Refactor(mats[1+i%(steps-1)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pmkl-factor", func(b *testing.B) {
		opts := pmkl.DefaultOptions()
		opts.Threads = 8
		sym, err := pmkl.Analyze(mats[0], opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pmkl.Factor(mats[1+i%(steps-1)], sym); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- PR 2: the zero-allocation refactorization pipeline ----

// BenchmarkRefactor measures the steady-state serial Refactor — the pure
// numeric-scatter path (no Permute, no ExtractBlock, no goroutines). The
// acceptance bar is 0 allocs/op once the pipeline is warm.
func BenchmarkRefactor(b *testing.B) {
	base := matgen.XyceSequenceBase(benchScale())
	const steps = 20
	mats := make([]*sparse.CSC, steps)
	for t := range mats {
		mats[t] = matgen.TransientStep(base, t, 777)
	}
	num, err := core.FactorDirect(mats[0], core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	// Warm: build the entry maps and grow every pooled buffer.
	for t := 1; t < 4; t++ {
		if err := num.Refactor(mats[t]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := num.Refactor(mats[1+i%(steps-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefactorParallel drives the unified scheduler (fine-ND blocks
// concurrent with the fine-BTF partition); the only steady-state
// allocations left on this path are the per-sweep goroutine launches.
func BenchmarkRefactorParallel(b *testing.B) {
	base := matgen.XyceSequenceBase(benchScale())
	const steps = 20
	mats := make([]*sparse.CSC, steps)
	for t := range mats {
		mats[t] = matgen.TransientStep(base, t, 777)
	}
	opts := core.DefaultOptions()
	opts.Threads = 8
	num, err := core.FactorDirect(mats[0], opts)
	if err != nil {
		b.Fatal(err)
	}
	for t := 1; t < 4; t++ {
		if err := num.Refactor(mats[t]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := num.Refactor(mats[1+i%(steps-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- PR 3: the pruned, pooled, fully-overlapped fresh factorization ----

// BenchmarkFactorParallel measures the fresh numeric factorization over the
// whole Table I suite: per-matrix fresh Factor (new pivots every call)
// through the pooled FactorInto serving path — the hot loop a workload that
// cannot trust cached pivots runs. The acceptance bar for this PR is a
// >= 1.5x geomean speedup over the pre-PR two-phase Factor.
func BenchmarkFactorParallel(b *testing.B) {
	for _, m := range matgen.TableISuite(benchScale()) {
		a := m.Gen()
		b.Run(m.Name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Threads = 8
			sym, err := core.Analyze(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			num, err := core.Factor(a, sym)
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

// BenchmarkFactorPruning is the pruning ablation on the fresh serial path.
func BenchmarkFactorPruning(b *testing.B) {
	a := suiteMatrix(b, "G2_Circuit")
	for _, noPrune := range []bool{false, true} {
		name := "pruned"
		if noPrune {
			name = "unpruned"
		}
		b.Run(name, func(b *testing.B) {
			benchBasker(b, a, 8, func(o *core.Options) { o.NoPrune = noPrune })
		})
	}
}

// BenchmarkPoolFactor drives repeated same-pattern fresh factorization
// through the pool: cached symbolic analysis plus recycled numeric storage.
// The acceptance bar is <= 5% of the factor-every-call allocations.
func BenchmarkPoolFactor(b *testing.B) {
	base := matgen.XyceSequenceBase(benchScale() * 0.2)
	const steps = 8
	mats := make([]*sparse.CSC, steps)
	for t := range mats {
		mats[t] = matgen.TransientStep(base, t, 99)
	}
	opts := Options{Threads: 2, BigBlockMin: 64}
	b.Run("factor-every-call", func(b *testing.B) {
		solver := New(opts)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.Factor(mats[i%steps]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool-factor", func(b *testing.B) {
		pool := NewPool(PoolOptions{Options: opts})
		for w := 0; w < 3; w++ {
			lease, err := pool.Factor(mats[w])
			if err != nil {
				b.Fatal(err)
			}
			lease.Release()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lease, err := pool.Factor(mats[i%steps])
			if err != nil {
				b.Fatal(err)
			}
			lease.Release()
		}
	})
}

// ---- ablations: BTF / MWCM / local AMD ----

func BenchmarkAblationBTF(b *testing.B) {
	a := suiteMatrix(b, "rajat21")
	b.Run("with-btf", func(b *testing.B) { benchBasker(b, a, 8, nil) })
	b.Run("no-btf", func(b *testing.B) {
		benchBasker(b, a, 8, func(o *core.Options) { o.UseBTF = false })
	})
}

func BenchmarkAblationMWCM(b *testing.B) {
	a := suiteMatrix(b, "Xyce1")
	b.Run("with-mwcm", func(b *testing.B) { benchBasker(b, a, 8, nil) })
	b.Run("no-mwcm", func(b *testing.B) {
		benchBasker(b, a, 8, func(o *core.Options) { o.UseMWCM = false })
	})
}

func BenchmarkAblationLocalAMD(b *testing.B) {
	a := suiteMatrix(b, "Xyce3")
	b.Run("with-amd", func(b *testing.B) { benchBasker(b, a, 8, nil) })
	b.Run("no-amd", func(b *testing.B) {
		benchBasker(b, a, 8, func(o *core.Options) { o.LocalAMD = false })
	})
}

// ---- substrate micro-benchmarks ----

func BenchmarkGPFactorSerial(b *testing.B) {
	a := suiteMatrix(b, "bcircuit")
	benchKLU(b, a)
}

// ---- Concurrent solve subsystem: batched multi-RHS and pool throughput ----

// BenchmarkSolvePhase compares a loop of single Solve calls against the
// blocked SolveMany sweep (same serial factorization: isolates the
// cache-blocking win, zero steady-state allocations) and against SolveMany
// with panel parallelism (the intended serving configuration).
func BenchmarkSolvePhase(b *testing.B) {
	a := suiteMatrix(b, "Power0")
	const nrhs = 32
	master := make([]float64, a.N)
	for i := range master {
		master[i] = 1 + float64(i%7)
	}
	batch := make([][]float64, nrhs)
	for c := range batch {
		batch[c] = make([]float64, a.N)
	}
	fill := func() {
		for c := range batch {
			copy(batch[c], master)
		}
	}
	serial, err := New(Options{Threads: 1}).Factor(a)
	if err != nil {
		b.Fatal(err)
	}
	parallel, err := New(Options{Threads: 8}).Factor(a)
	if err != nil {
		b.Fatal(err)
	}
	fill()
	serial.SolveMany(batch) // warm workspace pools before measuring
	parallel.SolveMany(batch)

	b.Run("solve-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			for c := range batch {
				serial.Solve(batch[c])
			}
		}
	})
	b.Run("solve-many", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			serial.SolveMany(batch)
		}
	})
	b.Run("solve-many-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			parallel.SolveMany(batch)
		}
	})
}

// BenchmarkPoolThroughput drives the pattern-keyed factorization pool the
// way a serving layer would: concurrent goroutines stamping same-pattern
// transient steps, against the factor-every-call baseline.
func BenchmarkPoolThroughput(b *testing.B) {
	base := matgen.XyceSequenceBase(benchScale() * 0.2)
	const steps = 16
	mats := make([]*sparse.CSC, steps)
	for t := range mats {
		mats[t] = matgen.TransientStep(base, t, 99)
	}
	opts := Options{Threads: 2, BigBlockMin: 64}

	b.Run("factor-every-call", func(b *testing.B) {
		solver := New(opts)
		b.RunParallel(func(pb *testing.PB) {
			rhs := make([]float64, base.N)
			i := 0
			for pb.Next() {
				f, err := solver.Factor(mats[i%steps])
				if err != nil {
					b.Error(err)
					return
				}
				for j := range rhs {
					rhs[j] = 1
				}
				f.Solve(rhs)
				i++
			}
		})
	})
	b.Run("pool", func(b *testing.B) {
		pool := NewPool(PoolOptions{Options: opts})
		rhs0 := make([]float64, base.N)
		if err := pool.Solve(mats[0], rhs0); err != nil { // prime the pattern
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rhs := make([]float64, base.N)
			i := 0
			for pb.Next() {
				for j := range rhs {
					rhs[j] = 1
				}
				if err := pool.Solve(mats[i%steps], rhs); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		st := pool.Stats()
		b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses)*100, "hit%")
	})
}

func BenchmarkSolveOnly(b *testing.B) {
	a := suiteMatrix(b, "Power0")
	opts := core.DefaultOptions()
	opts.Threads = 4
	num, err := core.FactorDirect(a, opts)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rhs {
			rhs[j] = 1
		}
		num.Solve(rhs)
	}
}
