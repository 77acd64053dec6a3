// Command baskerbench regenerates every table and figure of the paper's
// evaluation (Booth, Rajamanickam, Thornquist: "Basker: A Threaded Sparse
// LU Factorization Utilizing Hierarchical Parallelism and Data Layouts",
// IPDPS 2016) against the synthetic workload replicas in internal/matgen.
//
// Usage:
//
//	baskerbench -experiment=table1|table2|fig5|fig6a|fig6b|fig7a|fig7b|fig7c|fig8|xyce|geomean|ablation|solve|refactor|factor|incremental|densend|denserefresh|all
//	            [-scale=1.0] [-maxcores=16] [-seqlen=200] [-mintime=50ms] [-refactorjson=BENCH_refactor.json]
//	            [-factorjson=BENCH_factor.json] [-incrementaljson=BENCH_incremental.json]
//
// Every time is wall clock on the host's own cores. Absolute numbers differ
// from the paper (different hardware, matrices scaled down, pure Go); the
// shapes — who wins, by what factor, where the fill-density crossover falls
// — are the reproduction target. The paper's barrier-vs-point-to-point
// comparison (§IV) is cited, not rerun: only point-to-point ships.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	basker "repro"
	"repro/internal/core"
	"repro/internal/klu"
	"repro/internal/matgen"
	"repro/internal/perf"
	"repro/internal/pmkl"
	"repro/internal/slumt"
	"repro/internal/sparse"
	"repro/internal/trace"
)

var (
	experiment   = flag.String("experiment", "all", "which experiment to run")
	scale        = flag.Float64("scale", 1.0, "matrix size scale factor")
	maxCores     = flag.Int("maxcores", 16, "maximum core count to sweep")
	seqLen       = flag.Int("seqlen", 200, "length of the Xyce transient sequence")
	minTime      = flag.Duration("mintime", 50*time.Millisecond, "minimum measuring time per point")
	refactorJSON = flag.String("refactorjson", "BENCH_refactor.json",
		"output path for the refactor-trajectory JSON (refactor experiment); empty disables the file")
	factorJSON = flag.String("factorjson", "BENCH_factor.json",
		"output path for the fresh-factorization trajectory JSON (factor experiment); empty disables the file")
	incrementalJSON = flag.String("incrementaljson", "BENCH_incremental.json",
		"output path for the incremental-refactorization trajectory JSON (incremental experiment); empty disables the file")
	densendJSON = flag.String("densendjson", "BENCH_densend.json",
		"output path for the dense-ND kernel trajectory JSON (densend experiment); empty disables the file")
	denserefreshJSON = flag.String("denserefreshjson", "BENCH_denserefresh.json",
		"output path for the dense/supernodal refresh trajectory JSON (denserefresh experiment); empty disables the file")
	traceOut = flag.String("trace", "",
		"write the scheduler timeline of the traced experiments (refactor, factor) as Chrome trace-event JSON to this path (loadable in Perfetto), and print per-sweep scheduler summaries")
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

// tracer is the shared event recorder behind -trace; nil when the flag is
// unset (the trajectory experiments then use private recorders for their
// utilization/imbalance columns and no timeline is written).
var tracer *trace.Recorder

// trajectoryRecorder returns the recorder trajectory experiments attach to
// their sweeps: the shared -trace recorder when set, else a private one
// (the per-sweep summary columns are wanted either way).
func trajectoryRecorder() *trace.Recorder {
	if tracer != nil {
		return tracer
	}
	return trace.NewRecorder(0)
}

// fatalf reports a benchmark-harness failure — a singular test matrix, a
// refresh the solver rejected, an unwritable output file — with its context
// and exits non-zero, instead of dumping a goroutine stack the way the old
// panic calls did. Harness failures are user-facing conditions, not
// programmer bugs.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "baskerbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flag.Parse()
	if *traceOut != "" {
		tracer = trace.NewRecorder(0)
	}
	if *maxCores > runtime.NumCPU() {
		fmt.Printf("note: -maxcores=%d exceeds NumCPU=%d; larger counts oversubscribe (the Phi-like mode)\n",
			*maxCores, runtime.NumCPU())
	}
	run := func(name string, f func()) {
		if *experiment == name || *experiment == "all" {
			fmt.Printf("\n================ %s ================\n", name)
			f()
		}
	}
	run("table1", table1)
	run("table2", table2)
	run("fig5", fig5)
	run("fig6a", func() { fig6("fig6a (SandyBridge-like)", sweep(*maxCores)) })
	run("fig6b", func() { fig6("fig6b (Phi-like, oversubscribed)", sweep(2**maxCores)) })
	run("fig7a", func() { fig7("fig7a: serial performance profile", 1, true) })
	run("fig7b", func() { fig7(fmt.Sprintf("fig7b: %d-core performance profile", *maxCores), *maxCores, false) })
	run("fig7c", func() { fig7(fmt.Sprintf("fig7c: %d-thread (Phi-like) profile", 2**maxCores), 2**maxCores, false) })
	run("fig8", fig8)
	run("xyce", xyce)
	run("geomean", geomean)
	run("ablation", ablation)
	run("solve", solvePhase)
	run("refactor", refactorTrajectory)
	run("factor", factorTrajectory)
	run("incremental", incrementalTrajectory)
	run("densend", densendTrajectory)
	run("denserefresh", denserefreshTrajectory)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nChrome trace written to %s (open in ui.perfetto.dev)\n", *traceOut)
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

// ---- refactor: the zero-allocation refactorization pipeline ----

// refactorTrajectory measures, per suite matrix, a fresh numeric Factor
// against the steady-state Refactor fast path, and emits the trajectory as
// BENCH_refactor.json so future changes to the hot path can be tracked
// (factor-vs-refactor ratio per matrix plus the geometric mean).
func refactorTrajectory() {
	fmt.Println("Refactorization pipeline: numeric Factor vs steady-state Refactor")
	type point struct {
		Name        string  `json:"name"`
		N           int     `json:"n"`
		Nnz         int     `json:"nnz"`
		FactorSec   float64 `json:"factor_s"`
		RefactorSec float64 `json:"refactor_s"`
		Ratio       float64 `json:"ratio"`
		// Scheduler-trace columns of the steady-state Refactor sweep.
		SyncFraction float64 `json:"sync_fraction"`
		Utilization  float64 `json:"utilization"`
		Imbalance    float64 `json:"imbalance"`
	}
	type report struct {
		Scale        float64 `json:"scale"`
		Threads      int     `json:"threads"`
		Matrices     []point `json:"matrices"`
		GeomeanRatio float64 `json:"geomean_ratio"`
	}
	rep := report{Scale: *scale, Threads: *maxCores}
	var rows [][]string
	var ratios []float64
	for _, m := range matgen.TableISuite(*scale) {
		a := m.Gen()
		opts := benchOpts()
		opts.Threads = *maxCores
		rec := trajectoryRecorder()
		opts.Trace = rec
		sym, err := core.Analyze(a, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: analyze failed: %v\n", m.Name, err)
			continue
		}
		num, err := core.Factor(a, sym)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: factor failed: %v\n", m.Name, err)
			continue
		}
		steps := make([]*sparse.CSC, 4)
		warmOK := true
		for t := range steps {
			steps[t] = matgen.TransientStep(a, t+1, 777)
			if err := num.Refactor(steps[t]); err != nil {
				fmt.Fprintf(os.Stderr, "%s: warm refactor failed: %v\n", m.Name, err)
				warmOK = false
				break
			}
		}
		if !warmOK {
			continue
		}
		factorSec := perf.Time(*minTime, func() {
			if _, err := core.Factor(a, sym); err != nil {
				fatalf("factor: %v", err)
			}
		})
		i := 0
		refactorSec := perf.Time(*minTime, func() {
			if err := num.Refactor(steps[i%len(steps)]); err != nil {
				fatalf("refactor: %v", err)
			}
			i++
		})
		ratio := factorSec / refactorSec
		ratios = append(ratios, ratio)
		sum, _ := rec.LastSummary(trace.PhaseRefactor)
		if *traceOut != "" {
			fmt.Printf("  %s: %s\n", m.Name, sum)
		}
		rep.Matrices = append(rep.Matrices, point{
			Name: m.Name, N: a.N, Nnz: a.Nnz(),
			FactorSec: factorSec, RefactorSec: refactorSec, Ratio: ratio,
			SyncFraction: sum.SyncFraction,
			Utilization:  sum.MeanUtilization(),
			Imbalance:    sum.Imbalance(),
		})
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%.1f", factorSec*1e6),
			fmt.Sprintf("%.1f", refactorSec*1e6),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%.1f%%", 100*sum.SyncFraction),
			fmt.Sprintf("%.2fx", sum.Imbalance()),
		})
	}
	fmt.Print(perf.Table([]string{"Matrix", "factor us", "refactor us", "factor/refactor", "sync", "imbalance"}, rows))
	rep.GeomeanRatio = perf.GeoMean(ratios)
	fmt.Printf("  geo-mean factor/refactor ratio: %.2fx over %d matrices\n", rep.GeomeanRatio, len(ratios))
	if *refactorJSON == "" {
		return
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "refactor json:", err)
		return
	}
	if err := os.WriteFile(*refactorJSON, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "refactor json:", err)
		return
	}
	fmt.Printf("  trajectory written to %s\n", *refactorJSON)
}

// ---- factor: the pruned, pooled, fully-overlapped fresh factorization ----

// factorTrajectory measures, per suite matrix, the fresh numeric
// factorization along this PR's three axes — serial vs parallel, pruned vs
// unpruned, from-scratch Factor vs the pooled FactorInto serving loop —
// against serial KLU, and emits the trajectory as BENCH_factor.json so
// future changes to the fresh hot path can be tracked. Like the refactor
// trajectory, every column is wall-clock.
func factorTrajectory() {
	fmt.Println("Fresh factorization: pruning, unified scheduler, pooled storage")
	fmt.Println("(wall-clock on this host, like the refactor trajectory)")
	wall := func(f func()) float64 { return perf.Time(*minTime, f) }
	type point struct {
		Name          string  `json:"name"`
		N             int     `json:"n"`
		Nnz           int     `json:"nnz"`
		KLUSec        float64 `json:"klu_s"`
		SerialSec     float64 `json:"serial_s"`
		ParallelSec   float64 `json:"parallel_s"`
		NoPruneSec    float64 `json:"noprune_s"`
		FactorIntoSec float64 `json:"factorinto_s"`
		// Scheduler-trace columns of the parallel fresh-Factor sweep.
		SyncFraction float64 `json:"sync_fraction"`
		Utilization  float64 `json:"utilization"`
		Imbalance    float64 `json:"imbalance"`
	}
	type report struct {
		Scale             float64 `json:"scale"`
		Threads           int     `json:"threads"`
		Matrices          []point `json:"matrices"`
		GeomeanVsKLU      float64 `json:"geomean_serial_vs_klu"`
		GeomeanPruneGain  float64 `json:"geomean_prune_gain"`
		GeomeanPooledGain float64 `json:"geomean_pooled_gain"`
		GeomeanPooledSec  float64 `json:"geomean_pooled_s"`
	}
	rep := report{Scale: *scale, Threads: *maxCores}
	var rows [][]string
	var vsKLU, pruneGain, pooledGain, pooledSecs []float64
	for _, m := range matgen.TableISuite(*scale) {
		a := m.Gen()
		opts := benchOpts()
		opts.Threads = *maxCores
		rec := trajectoryRecorder()
		opts.Trace = rec
		sym, err := core.Analyze(a, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: analyze failed: %v\n", m.Name, err)
			continue
		}
		num, err := core.Factor(a, sym)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: factor failed: %v\n", m.Name, err)
			continue
		}
		pt := point{Name: m.Name, N: a.N, Nnz: a.Nnz()}
		kluSym, err := klu.Analyze(a, klu.DefaultOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: klu analyze failed: %v\n", m.Name, err)
			continue
		}
		pt.KLUSec = wall(func() {
			if _, err := klu.Factor(a, kluSym); err != nil {
				fatalf("klu factor: %v", err)
			}
		})
		serialOpts := benchOpts()
		serialSym, err := core.Analyze(a, serialOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: serial analyze failed: %v\n", m.Name, err)
			continue
		}
		pt.SerialSec = wall(func() {
			if _, err := core.Factor(a, serialSym); err != nil {
				fatalf("serial factor: %v", err)
			}
		})
		pt.ParallelSec = wall(func() {
			if _, err := core.Factor(a, sym); err != nil {
				fatalf("parallel factor: %v", err)
			}
		})
		if sum, ok := rec.LastSummary(trace.PhaseFactor); ok {
			pt.SyncFraction = sum.SyncFraction
			pt.Utilization = sum.MeanUtilization()
			pt.Imbalance = sum.Imbalance()
			if *traceOut != "" {
				fmt.Printf("  %s: %s\n", m.Name, sum)
			}
		}
		// Pruning ablation on the serial path, where the symbolic DFS cost
		// is not drowned by goroutine scheduling noise.
		npOpts := benchOpts()
		npOpts.NoPrune = true
		npSym, err := core.Analyze(a, npOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: noprune analyze failed: %v\n", m.Name, err)
			continue
		}
		pt.NoPruneSec = wall(func() {
			if _, err := core.Factor(a, npSym); err != nil {
				fatalf("noprune factor: %v", err)
			}
		})
		pt.FactorIntoSec = wall(func() {
			if err := num.FactorInto(a); err != nil {
				fatalf("pooled factor: %v", err)
			}
		})
		rep.Matrices = append(rep.Matrices, pt)
		vsKLU = append(vsKLU, perf.Speedup(pt.KLUSec, pt.SerialSec))
		pruneGain = append(pruneGain, pt.NoPruneSec/pt.SerialSec)
		pooledGain = append(pooledGain, pt.ParallelSec/pt.FactorIntoSec)
		pooledSecs = append(pooledSecs, pt.FactorIntoSec)
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%.1f", pt.KLUSec*1e6),
			fmt.Sprintf("%.1f", pt.SerialSec*1e6),
			fmt.Sprintf("%.2fx", pt.NoPruneSec/pt.SerialSec),
			fmt.Sprintf("%.1f", pt.ParallelSec*1e6),
			fmt.Sprintf("%.1f", pt.FactorIntoSec*1e6),
			fmt.Sprintf("%.1f%%", 100*pt.SyncFraction),
			fmt.Sprintf("%.2fx", pt.Imbalance),
		})
	}
	fmt.Print(perf.Table(
		[]string{"Matrix", "KLU us", "serial us", "prune gain", "parallel us", "pooled us", "sync", "imbalance"}, rows))
	rep.GeomeanVsKLU = perf.GeoMean(vsKLU)
	rep.GeomeanPruneGain = perf.GeoMean(pruneGain)
	rep.GeomeanPooledGain = perf.GeoMean(pooledGain)
	rep.GeomeanPooledSec = perf.GeoMean(pooledSecs)
	fmt.Printf("  geo-mean serial vs KLU: %.2fx; serial prune gain %.2fx; pooled FactorInto vs from-scratch %.2fx; pooled geomean %.1f us\n",
		rep.GeomeanVsKLU, rep.GeomeanPruneGain, rep.GeomeanPooledGain, rep.GeomeanPooledSec*1e6)
	if *factorJSON == "" {
		return
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "factor json:", err)
		return
	}
	if err := os.WriteFile(*factorJSON, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "factor json:", err)
		return
	}
	fmt.Printf("  trajectory written to %s\n", *factorJSON)
}

// ---- incremental: the change-set-aware refactorization pipeline ----

// incrementalTrajectory measures, per suite matrix, the steady-state
// RefactorPartial against the full Refactor sweep while the fraction of
// changed columns climbs from 0.1% to 100%, and emits the trajectory as
// BENCH_incremental.json. Change sets come in two shapes: clustered (a
// contiguous run of original columns — the localized device-stamp
// perturbation transient simulation actually produces) and scattered (a
// uniform subset — the adversarial spread). The diff-based RefactorAuto is
// timed at every point too, since it is what pooled lease holders get
// transparently.
func incrementalTrajectory() {
	fmt.Println("Incremental refactorization: full Refactor vs RefactorPartial/RefactorAuto")
	fmt.Println("(wall-clock on this host, like the other trajectories)")
	fractions := []float64{0.001, 0.01, 0.05, 0.25, 1.0}
	type point struct {
		Fraction   float64 `json:"fraction"`
		Cols       int     `json:"cols"`
		FullSec    float64 `json:"full_s"`
		PartialSec float64 `json:"partial_s"`
		AutoSec    float64 `json:"auto_s"`
		ScatterSec float64 `json:"scatter_partial_s"`
	}
	type matrixRun struct {
		Name   string  `json:"name"`
		N      int     `json:"n"`
		Nnz    int     `json:"nnz"`
		Points []point `json:"points"`
	}
	type report struct {
		Scale          float64     `json:"scale"`
		Threads        int         `json:"threads"`
		Fractions      []float64   `json:"fractions"`
		Matrices       []matrixRun `json:"matrices"`
		GeomeanSpeedup []float64   `json:"geomean_partial_speedup"`
		GeomeanAuto    []float64   `json:"geomean_auto_speedup"`
		GeomeanScatter []float64   `json:"geomean_scatter_speedup"`
	}
	rep := report{Scale: *scale, Threads: *maxCores, Fractions: fractions}
	speedups := make([][]float64, len(fractions))
	autoSp := make([][]float64, len(fractions))
	scatterSp := make([][]float64, len(fractions))
	var rows [][]string
	for _, m := range matgen.TableISuite(*scale) {
		a := m.Gen()
		opts := benchOpts()
		opts.Threads = *maxCores
		sym, err := core.Analyze(a, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: analyze failed: %v\n", m.Name, err)
			continue
		}
		num, err := core.Factor(a, sym)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: factor failed: %v\n", m.Name, err)
			continue
		}
		if err := num.Refactor(a); err != nil {
			fmt.Fprintf(os.Stderr, "%s: warm refactor failed: %v\n", m.Name, err)
			continue
		}
		mr := matrixRun{Name: m.Name, N: a.N, Nnz: a.Nnz()}
		row := []string{m.Name}
		failed := false
		for fi, frac := range fractions {
			cluster := matgen.ChangeSet(a.N, frac, int64(1000+fi), true)
			scatter := matgen.ChangeSet(a.N, frac, int64(2000+fi), false)
			pt := point{Fraction: frac, Cols: len(cluster)}
			// Every step perturbs the same base inside the chosen set, so
			// consecutive (and wrapping) steps differ only in that set.
			measure := func(cols []int, refresh func(step *sparse.CSC) error) (float64, bool) {
				steps := make([]*sparse.CSC, 4)
				for t := range steps {
					steps[t] = matgen.PerturbColumns(a, cols, t+1, 4242)
				}
				for _, s := range steps {
					if err := refresh(s); err != nil {
						fmt.Fprintf(os.Stderr, "%s: warm incremental refresh failed: %v\n", m.Name, err)
						return 0, false
					}
				}
				i := 0
				sec := perf.Time(*minTime, func() {
					if err := refresh(steps[i%len(steps)]); err != nil {
						fatalf("incremental refresh: %v", err)
					}
					i++
				})
				// Leave the resident values equal to the base so the next
				// change set's contract holds.
				if err := num.Refactor(a); err != nil {
					return 0, false
				}
				return sec, true
			}
			var ok bool
			if pt.FullSec, ok = measure(cluster, num.Refactor); !ok {
				failed = true
				break
			}
			if pt.PartialSec, ok = measure(cluster, func(s *sparse.CSC) error { return num.RefactorPartial(s, cluster) }); !ok {
				failed = true
				break
			}
			if pt.AutoSec, ok = measure(cluster, num.RefactorAuto); !ok {
				failed = true
				break
			}
			if pt.ScatterSec, ok = measure(scatter, func(s *sparse.CSC) error { return num.RefactorPartial(s, scatter) }); !ok {
				failed = true
				break
			}
			mr.Points = append(mr.Points, pt)
			speedups[fi] = append(speedups[fi], pt.FullSec/pt.PartialSec)
			autoSp[fi] = append(autoSp[fi], pt.FullSec/pt.AutoSec)
			scatterSp[fi] = append(scatterSp[fi], pt.FullSec/pt.ScatterSec)
			row = append(row, fmt.Sprintf("%.2fx", pt.FullSec/pt.PartialSec))
		}
		if failed {
			continue
		}
		rep.Matrices = append(rep.Matrices, mr)
		rows = append(rows, row)
	}
	header := []string{"Matrix"}
	for _, f := range fractions {
		header = append(header, fmt.Sprintf("%g%%", f*100))
	}
	fmt.Print(perf.Table(header, rows))
	for fi := range fractions {
		rep.GeomeanSpeedup = append(rep.GeomeanSpeedup, perf.GeoMean(speedups[fi]))
		rep.GeomeanAuto = append(rep.GeomeanAuto, perf.GeoMean(autoSp[fi]))
		rep.GeomeanScatter = append(rep.GeomeanScatter, perf.GeoMean(scatterSp[fi]))
		fmt.Printf("  %5.1f%% changed: geomean speedup partial %.2fx, auto %.2fx, scattered %.2fx\n",
			fractions[fi]*100, rep.GeomeanSpeedup[fi], rep.GeomeanAuto[fi], rep.GeomeanScatter[fi])
	}
	if *incrementalJSON == "" {
		return
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "incremental json:", err)
		return
	}
	if err := os.WriteFile(*incrementalJSON, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "incremental json:", err)
		return
	}
	fmt.Printf("  trajectory written to %s\n", *incrementalJSON)
}

// ---- densend: the density-adaptive dense kernel layer ----

// densendTrajectory measures, per suite matrix, the fresh numeric
// factorization with the dense panel layer on (default) and off
// (NoDenseKernels, the ablation oracle): from-scratch Factor and the pooled
// FactorInto serving loop, both wall-clock, plus the number of dense-tagged
// kernels and the |L+U| inflation the structural fully dense blocks cost.
// The trajectory lands in BENCH_densend.json with geomean speedups split
// into the fill-heavy 3D-stencil subset (the G2_Circuit / twotone /
// onetone1 classes the layer targets) and the low-fill remainder, which
// must not regress.
func densendTrajectory() {
	fmt.Println("Dense-ND kernel layer: fresh factorization, dense vs NoDenseKernels")
	fmt.Println("(wall-clock on this host, like the factor trajectory)")
	wall := func(f func()) float64 { return perf.Time(*minTime, f) }
	fillHeavy := map[string]bool{"G2_Circuit": true, "twotone": true, "onetone1": true}
	type point struct {
		Name          string  `json:"name"`
		N             int     `json:"n"`
		Nnz           int     `json:"nnz"`
		DenseKernels  int     `json:"dense_kernels"`
		FillHeavy     bool    `json:"fill_heavy"`
		FactorDense   float64 `json:"factor_dense_s"`
		FactorNoDense float64 `json:"factor_nodense_s"`
		PooledDense   float64 `json:"pooled_dense_s"`
		PooledNoDense float64 `json:"pooled_nodense_s"`
		NnzLURatio    float64 `json:"nnzlu_ratio"`
	}
	type report struct {
		Scale            float64 `json:"scale"`
		Threads          int     `json:"threads"`
		Threshold        float64 `json:"threshold"`
		Matrices         []point `json:"matrices"`
		GeomeanFillHeavy float64 `json:"geomean_fillheavy_speedup"`
		GeomeanLowFill   float64 `json:"geomean_lowfill_speedup"`
	}
	rep := report{Scale: *scale, Threads: *maxCores, Threshold: core.DefaultDenseKernelThreshold}
	var rows [][]string
	var heavySp, lowSp []float64
	for _, m := range matgen.TableISuite(*scale) {
		a := m.Gen()
		opts := benchOpts()
		opts.Threads = *maxCores
		symD, err := core.Analyze(a, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: analyze failed: %v\n", m.Name, err)
			continue
		}
		numD, err := core.Factor(a, symD)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: factor failed: %v\n", m.Name, err)
			continue
		}
		oOpts := opts
		oOpts.NoDenseKernels = true
		symS, err := core.Analyze(a, oOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: nodense analyze failed: %v\n", m.Name, err)
			continue
		}
		numS, err := core.Factor(a, symS)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: nodense factor failed: %v\n", m.Name, err)
			continue
		}
		pt := point{
			Name: m.Name, N: a.N, Nnz: a.Nnz(),
			DenseKernels: symD.DenseKernels(),
			FillHeavy:    fillHeavy[m.Name],
			NnzLURatio:   float64(numD.NnzLU()) / float64(numS.NnzLU()),
		}
		pt.FactorDense = wall(func() {
			if _, err := core.Factor(a, symD); err != nil {
				fatalf("factor (dense kernels): %v", err)
			}
		})
		pt.FactorNoDense = wall(func() {
			if _, err := core.Factor(a, symS); err != nil {
				fatalf("factor (no dense kernels): %v", err)
			}
		})
		pt.PooledDense = wall(func() {
			if err := numD.FactorInto(a); err != nil {
				fatalf("pooled factor (dense kernels): %v", err)
			}
		})
		pt.PooledNoDense = wall(func() {
			if err := numS.FactorInto(a); err != nil {
				fatalf("pooled factor (no dense kernels): %v", err)
			}
		})
		rep.Matrices = append(rep.Matrices, pt)
		sp := pt.PooledNoDense / pt.PooledDense
		if pt.FillHeavy {
			heavySp = append(heavySp, sp)
		} else {
			lowSp = append(lowSp, sp)
		}
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%d", pt.DenseKernels),
			fmt.Sprintf("%.1f", pt.PooledDense*1e6),
			fmt.Sprintf("%.1f", pt.PooledNoDense*1e6),
			fmt.Sprintf("%.2fx", sp),
			fmt.Sprintf("%.2fx", pt.FactorNoDense/pt.FactorDense),
			fmt.Sprintf("%.2f", pt.NnzLURatio),
		})
	}
	fmt.Print(perf.Table(
		[]string{"Matrix", "dense kernels", "dense us", "nodense us", "pooled speedup", "factor speedup", "|L+U| ratio"}, rows))
	rep.GeomeanFillHeavy = perf.GeoMean(heavySp)
	rep.GeomeanLowFill = perf.GeoMean(lowSp)
	fmt.Printf("  geomean speedup: fill-heavy subset %.2fx (acceptance ≥1.3x), low-fill remainder %.2fx (acceptance ≥0.95x)\n",
		rep.GeomeanFillHeavy, rep.GeomeanLowFill)
	if *densendJSON == "" {
		return
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "densend json:", err)
		return
	}
	if err := os.WriteFile(*densendJSON, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "densend json:", err)
		return
	}
	fmt.Printf("  trajectory written to %s\n", *densendJSON)
}

// ---- denserefresh: dense panel refresh sweeps + etree supernodes ----

// denserefreshTrajectory measures the refresh side of the dense kernel
// layer on the fill-heavy subset the tentpole targets: the same-pattern
// Refactor and the change-set-restricted RefactorPartial through the
// dense-fed refresh kernels (dense refactor, in-place TRSM refresh, dense
// rank-k reduce) and the supernodal panels, against the entry-at-a-time
// NoDenseKernels refresh and the NoSupernodes ablation. The trajectory
// lands in BENCH_denserefresh.json; acceptance is a >=1.25x geomean on the
// fill-heavy Refactor column.
func denserefreshTrajectory() {
	fmt.Println("Dense/supernodal refresh sweeps: Refactor + RefactorPartial, dense vs ablations")
	fmt.Println("(wall-clock on this host, fill-heavy subset: G2_Circuit, twotone, onetone1)")
	wall := func(f func()) float64 { return perf.Time(*minTime, f) }
	fillHeavy := map[string]bool{"G2_Circuit": true, "twotone": true, "onetone1": true}
	type point struct {
		Name            string  `json:"name"`
		N               int     `json:"n"`
		Nnz             int     `json:"nnz"`
		DenseKernels    int     `json:"dense_kernels"`
		Supernodes      int     `json:"supernodes"`
		RefreshDense    float64 `json:"refactor_dense_s"`
		RefreshNoDense  float64 `json:"refactor_nodense_s"`
		RefreshNoSnode  float64 `json:"refactor_nosnode_s"`
		PartialDense    float64 `json:"partial_dense_s"`
		PartialNoDense  float64 `json:"partial_nodense_s"`
		RefreshSpeedup  float64 `json:"refactor_speedup"`
		PartialSpeedup  float64 `json:"partial_speedup"`
		SnodeContribPct float64 `json:"snode_contrib_pct"`
	}
	type report struct {
		Scale          float64 `json:"scale"`
		Threads        int     `json:"threads"`
		Matrices       []point `json:"matrices"`
		GeomeanRefresh float64 `json:"geomean_refactor_speedup"`
		GeomeanPartial float64 `json:"geomean_partial_speedup"`
		AcceptanceNote string  `json:"acceptance_note"`
	}
	rep := report{
		Scale: *scale, Threads: *maxCores,
		AcceptanceNote: "geomean_refactor_speedup >= 1.25 on the fill-heavy subset",
	}
	var rows [][]string
	var refSp, parSp []float64
	type trialCase struct {
		name      string
		gen       func() *sparse.CSC
		inGeomean bool
		threads   int
	}
	var cases []trialCase
	for _, m := range matgen.TableISuite(*scale) {
		if fillHeavy[m.Name] {
			m := m
			cases = append(cases, trialCase{m.Name, m.Gen, true, *maxCores})
		}
	}
	// One moderate-density 3D-stencil row outside the acceptance geomean,
	// measured serially: one large leaf diagonal is the regime where etree
	// supernodes (not area-threshold dense tags) supply the blocked panels,
	// so the supernode contribution column is measured on its home turf too.
	cases = append(cases, trialCase{"stencil3d", func() *sparse.CSC {
		n := int(3000 * *scale)
		if n < 200 {
			n = 200
		}
		return matgen.Circuit(matgen.CircuitParams{
			N: n, BTFPct: 0, Blocks: 1 + n/50,
			Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: 5,
		})
	}, false, 1})
	for _, m := range cases {
		base := m.gen()
		// Refresh trajectories: a short ring of same-pattern transient steps
		// for the full sweep, and change-set-localized steps for the partial
		// sweep (the contract requires cols to cover every changed column).
		steps := make([]*sparse.CSC, 4)
		for i := range steps {
			steps[i] = matgen.TransientStep(base, i+1, 31)
		}
		cols := matgen.ChangeSet(base.N, 0.05, 17, true)
		psteps := make([]*sparse.CSC, 4)
		for i := range psteps {
			psteps[i] = matgen.PerturbColumns(base, cols, i+1, 31)
		}
		variant := func(mut func(*core.Options)) (*core.Symbolic, *core.Numeric, error) {
			opts := benchOpts()
			opts.Threads = m.threads
			if mut != nil {
				mut(&opts)
			}
			sym, err := core.Analyze(base, opts)
			if err != nil {
				return nil, nil, err
			}
			num, err := core.Factor(base, sym)
			if err != nil {
				return nil, nil, err
			}
			return sym, num, num.Refactor(base)
		}
		refreshLoop := func(num *core.Numeric, ring []*sparse.CSC) float64 {
			i := 0
			return wall(func() {
				i++
				if err := num.Refactor(ring[i%len(ring)]); err != nil {
					fatalf("%s: refactor: %v", m.name, err)
				}
			})
		}
		symD, numD, err := variant(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: dense variant: %v\n", m.name, err)
			continue
		}
		_, numS, err := variant(func(o *core.Options) { o.NoDenseKernels = true; o.NoSupernodes = true })
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: sparse ablation: %v\n", m.name, err)
			continue
		}
		_, numNoSn, err := variant(func(o *core.Options) { o.NoSupernodes = true })
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: nosupernode ablation: %v\n", m.name, err)
			continue
		}
		pt := point{
			Name: m.name, N: base.N, Nnz: base.Nnz(),
			DenseKernels: symD.DenseKernels(),
			Supernodes:   symD.Supernodes(),
		}
		pt.RefreshDense = refreshLoop(numD, steps)
		pt.RefreshNoDense = refreshLoop(numS, steps)
		pt.RefreshNoSnode = refreshLoop(numNoSn, steps)
		i := 0
		partialLoop := func(num *core.Numeric) float64 {
			return wall(func() {
				i++
				if err := num.RefactorPartial(psteps[i%len(psteps)], cols); err != nil {
					fatalf("%s: refactor-partial: %v", m.name, err)
				}
			})
		}
		pt.PartialDense = partialLoop(numD)
		pt.PartialNoDense = partialLoop(numS)
		pt.RefreshSpeedup = pt.RefreshNoDense / pt.RefreshDense
		pt.PartialSpeedup = pt.PartialNoDense / pt.PartialDense
		// Supernode contribution: how much of the refresh win vanishes when
		// only the supernodal panels are ablated (dense tags kept).
		if pt.RefreshNoSnode > 0 {
			pt.SnodeContribPct = 100 * (pt.RefreshNoSnode - pt.RefreshDense) / pt.RefreshNoSnode
		}
		rep.Matrices = append(rep.Matrices, pt)
		if m.inGeomean {
			refSp = append(refSp, pt.RefreshSpeedup)
			parSp = append(parSp, pt.PartialSpeedup)
		}
		rows = append(rows, []string{
			m.name,
			fmt.Sprintf("%d", pt.DenseKernels),
			fmt.Sprintf("%d", pt.Supernodes),
			fmt.Sprintf("%.1f", pt.RefreshDense*1e6),
			fmt.Sprintf("%.1f", pt.RefreshNoDense*1e6),
			fmt.Sprintf("%.2fx", pt.RefreshSpeedup),
			fmt.Sprintf("%.2fx", pt.PartialSpeedup),
			fmt.Sprintf("%.1f%%", pt.SnodeContribPct),
		})
	}
	fmt.Print(perf.Table(
		[]string{"Matrix", "dense kernels", "supernodes", "refresh us", "entrywise us", "refresh speedup", "partial speedup", "snode share"}, rows))
	rep.GeomeanRefresh = perf.GeoMean(refSp)
	rep.GeomeanPartial = perf.GeoMean(parSp)
	fmt.Printf("  geomean refresh speedup %.2fx (acceptance ≥1.25x), partial %.2fx\n",
		rep.GeomeanRefresh, rep.GeomeanPartial)
	if *denserefreshJSON == "" {
		return
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "denserefresh json:", err)
		return
	}
	if err := os.WriteFile(*denserefreshJSON, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "denserefresh json:", err)
		return
	}
	fmt.Printf("  trajectory written to %s\n", *denserefreshJSON)
}

// ---- solve phase: the concurrent solve subsystem (internal/trisolve) ----

// solvePhase measures the steady-state solve path of a transient loop: a
// loop of single Solve calls against the blocked multi-RHS SolveMany sweep
// (same factorization), and the pattern-keyed factorization pool against
// factoring on every call.
func solvePhase() {
	fmt.Println("Concurrent solve subsystem (Power0 replica, 32 RHS per batch)")
	var mat matgen.Named
	for _, m := range matgen.TableISuite(*scale) {
		if m.Name == "Power0" {
			mat = m
		}
	}
	a := mat.Gen()
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
	serial, err := basker.New(basker.Options{Threads: 1, StallTimeout: *stallTimeout}).Factor(a)
	if err != nil {
		fatalf("serial factor: %v", err)
	}
	threaded, err := basker.New(basker.Options{Threads: *maxCores, StallTimeout: *stallTimeout}).Factor(a)
	if err != nil {
		fatalf("threaded factor: %v", err)
	}
	fill()
	serial.SolveMany(batch)
	threaded.SolveMany(batch)

	loopSec := perf.Time(*minTime, func() {
		fill()
		for c := range batch {
			serial.Solve(batch[c])
		}
	})
	manySec := perf.Time(*minTime, func() {
		fill()
		serial.SolveMany(batch)
	})
	parSec := perf.Time(*minTime, func() {
		fill()
		threaded.SolveMany(batch)
	})
	rows := [][]string{
		{"solve loop (1 thread)", fmt.Sprintf("%.1f", loopSec*1e6/nrhs), "1.00"},
		{"SolveMany (1 thread)", fmt.Sprintf("%.1f", manySec*1e6/nrhs), fmt.Sprintf("%.2f", loopSec/manySec)},
		{fmt.Sprintf("SolveMany (%d threads)", *maxCores), fmt.Sprintf("%.1f", parSec*1e6/nrhs), fmt.Sprintf("%.2f", loopSec/parSec)},
	}
	fmt.Print(perf.Table([]string{"path", "us/RHS", "speedup"}, rows))

	fmt.Println("\nFactorization pool over a transient sequence (Refactor fast path)")
	base := matgen.XyceSequenceBase(*scale * 0.2)
	steps := make([]*sparse.CSC, 16)
	for t := range steps {
		steps[t] = matgen.TransientStep(base, t, 99)
	}
	rhs := make([]float64, base.N)
	opts := basker.Options{Threads: 2, BigBlockMin: 64, StallTimeout: *stallTimeout}
	i := 0
	solver := basker.New(opts)
	everySec := perf.Time(*minTime, func() {
		f, err := solver.Factor(steps[i%len(steps)])
		if err != nil {
			fatalf("factor (transient step): %v", err)
		}
		for j := range rhs {
			rhs[j] = 1
		}
		f.Solve(rhs)
		i++
	})
	pool := basker.NewPool(basker.PoolOptions{Options: opts})
	if err := pool.Solve(steps[0], rhs); err != nil {
		fatalf("pool solve: %v", err)
	}
	i = 0
	poolSec := perf.Time(*minTime, func() {
		for j := range rhs {
			rhs[j] = 1
		}
		if err := pool.Solve(steps[i%len(steps)], rhs); err != nil {
			fatalf("pool solve: %v", err)
		}
		i++
	})
	st := pool.Stats()
	rows = [][]string{
		{"factor every call", fmt.Sprintf("%.0f", everySec*1e6), "1.00", "-"},
		{"pool (Refactor hit)", fmt.Sprintf("%.0f", poolSec*1e6), fmt.Sprintf("%.2f", everySec/poolSec),
			fmt.Sprintf("%.0f%%", 100*float64(st.Hits)/float64(st.Hits+st.Misses))},
	}
	fmt.Print(perf.Table([]string{"path", "us/solve", "speedup", "hit rate"}, rows))
}
