// Command baskerbench regenerates every table and figure of the paper's
// evaluation (Booth, Rajamanickam, Thornquist: "Basker: A Threaded Sparse
// LU Factorization Utilizing Hierarchical Parallelism and Data Layouts",
// IPDPS 2016) against the synthetic workload replicas in internal/matgen.
//
// Usage:
//
//	baskerbench -experiment=table1|table2|fig5|fig6a|fig6b|fig7a|fig7b|fig7c|fig8|xyce|geomean|ablation|all
//	            [-scale=1.0] [-maxcores=16] [-seqlen=200] [-mintime=50ms] [-timeout=0]
//
// Every time is wall clock on the host's own cores. Absolute numbers differ
// from the paper (different hardware, matrices scaled down, pure Go); the
// shapes — who wins, by what factor, where the fill-density crossover falls
// — are the reproduction target. The paper's barrier-vs-point-to-point
// comparison (§IV) is cited, not rerun: only point-to-point ships.
// Per-layer timings of the solver's own hot paths live in the bench/
// module, not here.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/klu"
	"repro/internal/matgen"
	"repro/internal/perf"
	"repro/internal/pmkl"
	"repro/internal/slumt"
	"repro/internal/sparse"
)

var (
	experiment   = flag.String("experiment", "all", "which experiment to run")
	scale        = flag.Float64("scale", 1.0, "matrix size scale factor")
	maxCores     = flag.Int("maxcores", 16, "maximum core count to sweep")
	seqLen       = flag.Int("seqlen", 200, "length of the Xyce transient sequence")
	minTime      = flag.Duration("mintime", 50*time.Millisecond, "minimum measuring time per point")
	stallTimeout = flag.Duration("timeout", 0,
		"arm the per-sweep stall watchdog on every basker factorization: a parallel sweep that makes no progress for this long aborts with ErrStalled naming the stuck block instead of hanging the run (0 disables)")
)

// benchOpts is core.DefaultOptions with the -timeout stall watchdog armed;
// every basker factorization the benchmark builds goes through it.
func benchOpts() core.Options {
	o := core.DefaultOptions()
	o.StallTimeout = *stallTimeout
	return o
}

// fatalf reports a benchmark-harness failure — a singular test matrix, a
// refresh the solver rejected — with its context and exits non-zero,
// instead of dumping a goroutine stack. Harness failures are user-facing
// conditions, not programmer bugs.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "baskerbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flag.Parse()
	experiments := []struct {
		name string
		run  func()
	}{
		{"table1", table1},
		{"table2", table2},
		{"fig5", fig5},
		{"fig6a", func() { fig6("fig6a (SandyBridge-like)", sweep(*maxCores)) }},
		{"fig6b", func() { fig6("fig6b (Phi-like, oversubscribed)", sweep(2**maxCores)) }},
		{"fig7a", func() { fig7("fig7a: serial performance profile", 1, true) }},
		{"fig7b", func() { fig7(fmt.Sprintf("fig7b: %d-core performance profile", *maxCores), *maxCores, false) }},
		{"fig7c", func() { fig7(fmt.Sprintf("fig7c: %d-thread (Phi-like) profile", 2**maxCores), 2**maxCores, false) }},
		{"fig8", fig8},
		{"xyce", xyce},
		{"geomean", geomean},
		{"ablation", ablation},
	}
	var names []string
	known := *experiment == "all"
	for _, e := range experiments {
		names = append(names, e.name)
		known = known || *experiment == e.name
	}
	if !known {
		fmt.Fprintf(os.Stderr, "baskerbench: unknown experiment %q; valid: %s|all\n",
			*experiment, strings.Join(names, "|"))
		os.Exit(2)
	}
	if *maxCores > runtime.NumCPU() {
		fmt.Printf("note: -maxcores=%d exceeds NumCPU=%d; larger counts oversubscribe (the Phi-like mode)\n",
			*maxCores, runtime.NumCPU())
	}
	for _, e := range experiments {
		if *experiment == e.name || *experiment == "all" {
			fmt.Printf("\n================ %s ================\n", e.name)
			e.run()
		}
	}
}

// sweep returns the power-of-two core counts 1..max.
func sweep(max int) []int {
	var out []int
	for c := 1; c <= max; c *= 2 {
		out = append(out, c)
	}
	return out
}

// ---- solver timing helpers (numeric phase only, like the paper) ----

func timeKLU(a *sparse.CSC) float64 {
	sym, err := klu.Analyze(a, klu.DefaultOptions())
	if err != nil {
		return math.Inf(1)
	}
	return perf.Time(*minTime, func() {
		if _, err := klu.Factor(a, sym); err != nil {
			fatalf("klu factor: %v", err)
		}
	})
}

func timeBasker(a *sparse.CSC, threads int) float64 {
	return timeBaskerOpts(a, threads, nil)
}

func timeBaskerOpts(a *sparse.CSC, threads int, mod func(*core.Options)) float64 {
	opts := benchOpts()
	opts.Threads = threads
	if mod != nil {
		mod(&opts)
	}
	sym, err := core.Analyze(a, opts)
	if err != nil {
		return math.Inf(1)
	}
	return perf.Time(*minTime, func() {
		if _, err := core.Factor(a, sym); err != nil {
			fatalf("factor: %v", err)
		}
	})
}

func timePMKL(a *sparse.CSC, threads int) float64 {
	opts := pmkl.DefaultOptions()
	opts.Threads = threads
	sym, err := pmkl.Analyze(a, opts)
	if err != nil {
		return math.Inf(1)
	}
	return perf.Time(*minTime, func() {
		if _, err := pmkl.Factor(a, sym); err != nil {
			fatalf("pmkl factor: %v", err)
		}
	})
}

func timeSLUMT(a *sparse.CSC, threads int) (float64, bool) {
	sym, err := pmkl.Analyze(a, pmkl.Options{Threads: 1})
	if err != nil {
		return math.Inf(1), true
	}
	failed := false
	sec := perf.Time(*minTime, func() {
		if _, err := slumt.FactorWithSymbolic(a, sym, slumt.Options{Threads: threads}); err != nil {
			failed = true
		}
	})
	return sec, failed
}

// ---- Table I ----

func table1() {
	fmt.Println("Table I: matrix suite, |L+U| for KLU / PMKL / Basker, BTF stats")
	fmt.Println("(* marks the smaller factor between PMKL and Basker, as Table I bolds)")
	var rows [][]string
	for _, m := range matgen.TableISuite(*scale) {
		a := m.Gen()
		kluNum, err := klu.FactorDirect(a, klu.DefaultOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: KLU failed: %v\n", m.Name, err)
			continue
		}
		pOpts := pmkl.DefaultOptions()
		pOpts.Threads = 8
		pmklNum, perr := pmkl.FactorDirect(a, pOpts)
		bOpts := benchOpts()
		bOpts.Threads = 8
		baskerNum, berr := core.FactorDirect(a, bOpts)
		pm, bk := "fail", "fail"
		pmN, bkN := math.MaxInt, math.MaxInt
		if perr == nil {
			pmN = pmklNum.NnzLU()
			pm = fmt.Sprintf("%.2e", float64(pmN))
		}
		if berr == nil {
			bkN = baskerNum.NnzLU()
			bk = fmt.Sprintf("%.2e", float64(bkN))
		}
		if pmN < bkN {
			pm += "*"
		} else if bkN < math.MaxInt {
			bk += "*"
		}
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%d", a.N),
			fmt.Sprintf("%.2e", float64(a.Nnz())),
			fmt.Sprintf("%.2e", float64(kluNum.NnzLU())),
			pm, bk,
			fmt.Sprintf("%.1f", kluNum.Sym.BTFPercent),
			fmt.Sprintf("%d", kluNum.Sym.NumBlocks()),
			fmt.Sprintf("%.1f", kluNum.FillDensity(a)),
			fmt.Sprintf("%.1f", m.PaperFill),
		})
	}
	fmt.Print(perf.Table(
		[]string{"Matrix", "n", "|A|", "KLU|L+U|", "PMKL|L+U|", "Basker|L+U|", "BTF%", "blocks", "fill", "paper-fill"},
		rows))
}

// ---- Table II ----

func table2() {
	fmt.Println("Table II: 2/3D mesh problems (PMKL's ideal inputs)")
	var rows [][]string
	for _, m := range matgen.TableIISuite(*scale) {
		a := m.Gen()
		num, err := pmkl.FactorDirect(a, pmkl.DefaultOptions())
		lu := "fail"
		if err == nil {
			lu = fmt.Sprintf("%.2e", float64(num.NnzLU()))
		}
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%d", a.N),
			fmt.Sprintf("%.2e", float64(a.Nnz())),
			lu,
		})
	}
	fmt.Print(perf.Table([]string{"Matrix", "n", "|A|", "|L+U| (PMKL)"}, rows))
}

// ---- Figure 5 ----

func fig5() {
	fmt.Println("Figure 5: raw numeric-factorization time (s), Basker vs PMKL vs SLU-MT")
	cores := []int{1, 8, 16}
	var rows [][]string
	for _, m := range matgen.Fig5Subset(*scale) {
		a := m.Gen()
		for _, c := range cores {
			if c > *maxCores {
				continue
			}
			bs := timeBasker(a, c)
			ps := timePMKL(a, c)
			ss, failed := timeSLUMT(a, c)
			slu := fmt.Sprintf("%.4f", ss)
			if failed {
				slu = "fail"
			}
			rows = append(rows, []string{
				m.Name, fmt.Sprintf("%d", c),
				fmt.Sprintf("%.4f", bs),
				fmt.Sprintf("%.4f", ps),
				slu,
			})
		}
	}
	fmt.Print(perf.Table([]string{"Matrix", "cores", "Basker", "PMKL", "SLU-MT"}, rows))
}

// ---- Figure 6 ----

func fig6(title string, cores []int) {
	fmt.Printf("%s: speedup vs serial KLU\n", title)
	var rows [][]string
	for _, m := range matgen.Fig5Subset(*scale) {
		a := m.Gen()
		kluSec := timeKLU(a)
		for _, c := range cores {
			bs := timeBasker(a, c)
			ps := timePMKL(a, c)
			rows = append(rows, []string{
				m.Name, fmt.Sprintf("%d", c),
				fmt.Sprintf("%.2f", perf.Speedup(kluSec, bs)),
				fmt.Sprintf("%.2f", perf.Speedup(kluSec, ps)),
				fmt.Sprintf("%.4f", kluSec),
			})
		}
	}
	fmt.Print(perf.Table([]string{"Matrix", "cores", "Basker", "PMKL", "KLU(1) s"}, rows))
}

// ---- Figure 7 ----

func fig7(title string, threads int, includeKLU bool) {
	fmt.Println(title)
	var samples []perf.Sample
	for _, m := range matgen.TableISuite(*scale) {
		a := m.Gen()
		samples = append(samples,
			perf.Sample{Matrix: m.Name, Solver: "Basker", Threads: threads, Seconds: timeBasker(a, threads)},
			perf.Sample{Matrix: m.Name, Solver: "PMKL", Threads: threads, Seconds: timePMKL(a, threads)},
		)
		if includeKLU {
			samples = append(samples, perf.Sample{Matrix: m.Name, Solver: "KLU", Threads: 1, Seconds: timeKLU(a)})
		}
	}
	solvers := []string{"Basker", "PMKL"}
	if includeKLU {
		solvers = append(solvers, "KLU")
	}
	for _, s := range solvers {
		fmt.Printf("  %-7s best on %.0f%% of matrices\n", s, 100*perf.FractionBest(samples, s))
	}
	prof := perf.Profiles(samples, 16)
	for _, s := range solvers {
		fmt.Printf("  profile %s:", s)
		pts := prof[s]
		// Print a condensed curve at x = 1,2,3,5,8,16.
		for _, x := range []float64{1, 2, 3, 5, 8, 16} {
			frac := 0.0
			for _, p := range pts {
				if p.X <= x {
					frac = p.Fraction
				}
			}
			fmt.Printf("  (%.0fx:%.2f)", x, frac)
		}
		fmt.Println()
	}
}

// ---- Figure 8 ----

func fig8() {
	fmt.Println("Figure 8: self-relative speedup on each solver's ideal inputs")
	cores := sweep(*maxCores)
	var bx, by, px, py []float64
	fmt.Println("  Basker on the six lowest fill-in circuit matrices:")
	for _, m := range matgen.BaskerIdealSubset(*scale) {
		a := m.Gen()
		base := timeBasker(a, 1)
		for _, c := range cores {
			sp := perf.Speedup(base, timeBasker(a, c))
			bx = append(bx, float64(c))
			by = append(by, sp)
			fmt.Printf("    %-12s %2d cores: %.2fx\n", m.Name, c, sp)
		}
	}
	fmt.Println("  PMKL on the 2/3D mesh problems (Table II):")
	for _, m := range matgen.TableIISuite(*scale) {
		a := m.Gen()
		base := timePMKL(a, 1)
		for _, c := range cores {
			sp := perf.Speedup(base, timePMKL(a, c))
			px = append(px, float64(c))
			py = append(py, sp)
			fmt.Printf("    %-14s %2d cores: %.2fx\n", m.Name, c, sp)
		}
	}
	ab, bb := perf.TrendLine(bx, by)
	ap, bp := perf.TrendLine(px, py)
	fmt.Printf("  trend Basker: speedup ≈ %.2f + %.3f·cores\n", ab, bb)
	fmt.Printf("  trend PMKL:   speedup ≈ %.2f + %.3f·cores\n", ap, bp)
}

// ---- §V-F: Xyce transient sequence ----

func xyce() {
	fmt.Printf("Xyce transient sequence: %d matrices, fixed pattern, varying values\n", *seqLen)
	base := matgen.XyceSequenceBase(*scale)
	steps := make([]*sparse.CSC, *seqLen)
	for t := 0; t < *seqLen; t++ {
		steps[t] = matgen.TransientStep(base, t, 777)
	}

	// Basker with maxcores threads.
	bOpts := benchOpts()
	bOpts.Threads = *maxCores
	bSym, err := core.Analyze(base, bOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "basker analyze:", err)
		return
	}
	start := time.Now()
	bNum, err := core.Factor(steps[0], bSym)
	if err != nil {
		fmt.Fprintln(os.Stderr, "basker factor:", err)
		return
	}
	for t := 1; t < *seqLen; t++ {
		if err := bNum.Refactor(steps[t]); err != nil {
			fmt.Fprintf(os.Stderr, "basker refactor %d: %v\n", t, err)
			return
		}
	}
	baskerTotal := time.Since(start).Seconds()

	// KLU serial.
	start = time.Now()
	kNum, err := klu.FactorDirect(steps[0], klu.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "klu:", err)
		return
	}
	for t := 1; t < *seqLen; t++ {
		if err := kNum.Refactor(steps[t]); err != nil {
			fmt.Fprintf(os.Stderr, "klu refactor %d: %v\n", t, err)
			return
		}
	}
	kluTotal := time.Since(start).Seconds()

	// PMKL with maxcores threads.
	pOpts := pmkl.DefaultOptions()
	pOpts.Threads = *maxCores
	pSym, err := pmkl.Analyze(base, pOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmkl:", err)
		return
	}
	start = time.Now()
	for t := 0; t < *seqLen; t++ {
		if _, err := pmkl.Factor(steps[t], pSym); err != nil {
			fmt.Fprintf(os.Stderr, "pmkl factor %d: %v\n", t, err)
			return
		}
	}
	pmklTotal := time.Since(start).Seconds()

	fmt.Printf("  Basker (%d threads): %8.3f s\n", *maxCores, baskerTotal)
	fmt.Printf("  KLU    (serial):    %8.3f s\n", kluTotal)
	fmt.Printf("  PMKL   (%d threads): %8.3f s\n", *maxCores, pmklTotal)
	fmt.Printf("  speedup vs KLU:  %.2fx (paper: 5.22x)\n", kluTotal/baskerTotal)
	fmt.Printf("  speedup vs PMKL: %.2fx (paper: 5.43x)\n", pmklTotal/baskerTotal)
}

// ---- geometric means over the whole suite ----

func geomean() {
	fmt.Printf("Geometric-mean speedup vs KLU over the full suite (%d cores)\n", *maxCores)
	fmt.Println("(paper: Basker 5.91x, PMKL 1.5x on 16 SandyBridge cores;")
	fmt.Println(" Basker 7.4x, PMKL 5.78x on 32 Xeon Phi cores)")
	var bsp, psp []float64
	wins := 0
	total := 0
	for _, m := range matgen.TableISuite(*scale) {
		a := m.Gen()
		kluSec := timeKLU(a)
		bs := timeBasker(a, *maxCores)
		ps := timePMKL(a, *maxCores)
		bsp = append(bsp, perf.Speedup(kluSec, bs))
		psp = append(psp, perf.Speedup(kluSec, ps))
		total++
		if bs < ps {
			wins++
		}
		fmt.Printf("  %-12s Basker %6.2fx  PMKL %6.2fx\n", m.Name,
			perf.Speedup(kluSec, bs), perf.Speedup(kluSec, ps))
	}
	fmt.Printf("  geo-mean: Basker %.2fx, PMKL %.2fx; Basker faster on %d/%d\n",
		perf.GeoMean(bsp), perf.GeoMean(psp), wins, total)
}

// ---- design-choice ablations ----

func ablation() {
	fmt.Println("Design ablations on a mid-suite circuit matrix (rajat21 replica)")
	var mat matgen.Named
	for _, m := range matgen.TableISuite(*scale) {
		if m.Name == "rajat21" {
			mat = m
		}
	}
	a := mat.Gen()
	type cfg struct {
		name string
		opts core.Options
	}
	base := benchOpts()
	base.Threads = *maxCores
	mk := func(name string, mod func(*core.Options)) cfg {
		o := base
		mod(&o)
		return cfg{name, o}
	}
	cfgs := []cfg{
		mk("default", func(*core.Options) {}),
		mk("no-BTF", func(o *core.Options) { o.UseBTF = false }),
		mk("no-MWCM", func(o *core.Options) { o.UseMWCM = false }),
		mk("no-localAMD", func(o *core.Options) { o.LocalAMD = false }),
		mk("serial", func(o *core.Options) { o.Threads = 1 }),
	}
	var rows [][]string
	for _, c := range cfgs {
		sym, err := core.Analyze(a, c.opts)
		if err != nil {
			rows = append(rows, []string{c.name, "fail", "-"})
			continue
		}
		num, err := core.Factor(a, sym)
		if err != nil {
			rows = append(rows, []string{c.name, "fail", "-"})
			continue
		}
		sec := perf.Time(*minTime, func() {
			if _, err := core.Factor(a, sym); err != nil {
				fatalf("factor (config sweep): %v", err)
			}
		})
		rows = append(rows, []string{c.name, fmt.Sprintf("%.4f", sec), fmt.Sprintf("%.2e", float64(num.NnzLU()))})
	}
	fmt.Print(perf.Table([]string{"config", "numeric s", "|L+U|"}, rows))
}
