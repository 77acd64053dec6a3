// Command bench is the repository's benchmark: six named workloads, five
// end-to-end metrics with regression bounds plus fail_frac, and a traced
// run that attributes time to layers. It measures every layer from outside, by
// timing calls into public functions, reports only measured wall-clock
// time, and checks every answer. README.md in this directory is the
// glossary; BENCHMARK.json at the repository root is the contract.
//
//	bench -workload xyce_step -seed 1 -seconds 15 -trace 0   one workload, end-to-end metrics
//	bench -workload xyce_step -trace 1                       per-layer metrics + Chrome trace
//	bench -out runs.jsonl                                    all six, result appended to a file
//	bench compare A.jsonl B.jsonl                            apply the bounds, exit 1 on "worse" or "missing"
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	segments = 5 // equal timed segments; a timing metric is the median over them of the per-segment statistic
	// Each segment runs the solver's ops for opsShare of its length and the
	// in-process KLU baseline on the same inputs for the rest, so both see
	// the same host conditions.
	opsShare       = 0.8
	defaultSeconds = 15.0
	setupRepeats   = 3 // set-up runs this many times; setup_s is the median
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's outcome. Its first four fields are the
// line the acceptance driver reads.
type workloadResult struct {
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Metrics      map[string]metricValue `json:"metrics"`
	Workload     string                 `json:"workload,omitempty"`
	TimedSeconds float64                `json:"timed_seconds,omitempty"`
}

// provenance says where and how a result was measured.
type provenance struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	T          int     `json:"solver_threads"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	UTC        string  `json:"utc"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	Traced     bool    `json:"traced"`
	Timing     string  `json:"timing"` // always "measured": no modelled or replayed figure is reported
}

// record is one line of an -out file.
type record struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Int64("seed", 1, "seed of every generated value, right-hand side and request order")
	seconds := fs.Float64("seconds", defaultSeconds, "length of each workload's timed section")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace instead of end-to-end metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file, with -workload only (default <temp dir>/basker-bench-<workload>.json)")
	out := fs.String("out", "", "append the result, with provenance, to this file as one JSON line")
	smoke := fs.Bool("smoke", false, "tiny sizing (n≈10³) for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		run = []workload{w}
	} else if *traceOut != "" {
		fmt.Fprintln(stderr, "bench: -trace-out names one file; give -workload with it")
		return 2
	}
	nproc := runtime.NumCPU()
	e := env{seed: *seed, T: solverThreads(nproc), nproc: nproc, size: fullSize}
	if *smoke {
		e.size = smokeSize
	}
	rec := record{Provenance: provenance{
		Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), T: e.T, GoVersion: runtime.Version(), Commit: gitCommit(),
		Seed: *seed, UTC: time.Now().UTC().Format(time.RFC3339), Seconds: *seconds, Smoke: *smoke, Traced: *trace == 1, Timing: "measured",
	}}
	for _, w := range run {
		var res workloadResult
		var err error
		if *trace == 1 {
			path := *traceOut
			if path == "" {
				path = filepath.Join(os.TempDir(), "basker-bench-"+w.name+".json")
			}
			res, err = runTraced(e, w, *seconds, path, stdout)
		} else {
			res, err = runTimed(e, w, *seconds, *smoke)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		printResult(stdout, res)
		rec.Workloads = append(rec.Workloads, res)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	last := summary(rec.Workloads)
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

// solverThreads is the thread count of the library workloads: up to four,
// leaving one CPU to the load generator, the collector and the host. With
// every CPU claimed by a spin-waiting solver thread, anything else that runs
// preempts one and stalls its partner: on the shared 2-vCPU host a
// two-thread refresh of the fill-heavy class took 24 ms or 39 ms depending
// on the minute. The traced run still times the parallel sweep on every CPU
// (core.refresh_ms against core.refresh_serial_ms).
func solverThreads(nproc int) int { return max(1, min(nproc-1, 4)) }

// runTimed is the untraced run: set-up (repeated, for a steady setup_s),
// then five segments of ops and baseline, then the live heap.
func runTimed(e env, w workload, seconds float64, smoke bool) (workloadResult, error) {
	res := workloadResult{Workload: w.name, Metrics: map[string]metricValue{}}
	repeats := setupRepeats
	if smoke {
		repeats = 1
	}
	var inst instance
	var setups []float64
	for k := 0; k < repeats; k++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()

	segLen := time.Duration(seconds / segments * float64(time.Second))
	var ops, base [][]sample
	var rates []float64
	start := time.Now()
	for s := 0; s < segments; s++ {
		runtime.GC() // the baseline's garbage is not the ops' to collect
		seg := inst.runOps(time.Now().Add(time.Duration(opsShare*float64(segLen))), nil)
		klu, err := inst.runBaseline(time.Now().Add(time.Duration((1 - opsShare) * float64(segLen))))
		if err != nil {
			return res, err
		}
		ops, base, rates = append(ops, seg.samples), append(base, klu), append(rates, seg.rate)
		res.Attempted += seg.attempted
		res.Failed += seg.failed
	}
	res.TimedSeconds = time.Since(start).Seconds()

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)

	set := func(name string, v float64) {
		def, _ := findMetric(endToEnd, name)
		res.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
	}
	var opMS [][]float64
	for _, seg := range ops {
		opMS = append(opMS, values(seg))
	}
	set("setup_s", median(setups))
	set("ops_per_s", median(rates))
	set("op_p50_ms", segmentMedian(opMS, median))
	set("speedup_vs_klu", speedup(ops, base, w.perClassSpeedup))
	set("live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
	res.Correct = res.Failed == 0 && finite(res.Metrics)
	return res, nil
}

// runTraced is the traced run: untraced and span-recorded stretches of the
// workload's ops (their difference is what the recorder costs), the Chrome
// trace of the recorded one, and the layer battery on the workload's input.
func runTraced(e env, w workload, seconds float64, tracePath string, stdout io.Writer) (workloadResult, error) {
	res := workloadResult{Workload: w.name, Metrics: map[string]metricValue{}}
	inst, err := w.setup(e)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	// Plain, recorded, plain: the recorded stretch sits between the two it is
	// compared with, so a drift in host speed cancels.
	stretch := time.Duration(0.07 * seconds * float64(time.Second))
	start := time.Now()
	plain := inst.runOps(time.Now().Add(stretch), nil)
	rec := newRecorder()
	traced := inst.runOps(time.Now().Add(stretch), rec)
	after := inst.runOps(time.Now().Add(stretch), nil)
	plain.samples = append(plain.samples, after.samples...)
	res.Attempted = plain.attempted + traced.attempted + after.attempted
	res.Failed = plain.failed + traced.failed + after.failed

	m, err := runBattery(e, inst.probe(), time.Duration(0.5*seconds*float64(time.Second)))
	if err != nil {
		return res, err
	}
	res.TimedSeconds = time.Since(start).Seconds()
	plainMS, tracedMS := median(values(plain.samples)), median(values(traced.samples))
	m["op_p95_ms"] = percentile(values(plain.samples), 95)
	m["harness.span_coverage"] = coverage(rec.spans)
	m["harness.span_overhead_frac"] = (tracedMS - plainMS) / plainMS
	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			return res, fmt.Errorf("layer battery did not produce %s", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	if err := writeChromeTrace(tracePath, rec.spans); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "%s: %d spans written to %s; self time by span:\n", w.name, len(rec.spans), tracePath)
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-18s %10.3f ms\n", n, float64(self[n])/1e6)
	}
	res.Correct = res.Failed == 0 && finite(res.Metrics)
	return res, nil
}

// failFrac is the fail_frac metric: ops failed over ops attempted. It is
// carried as the failed/attempted pair of every result, not in Metrics.
func (r workloadResult) failFrac() float64 { return float64(r.Failed) / float64(r.Attempted) }

func finite(m map[string]metricValue) bool {
	for _, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return false
		}
	}
	return true
}

func printResult(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed, %.1f s measured\n", res.Workload, res.Attempted, res.Failed, res.TimedSeconds)
	fmt.Fprintf(w, "  %-32s %14.6g %s\n", failFrac.Name, res.failFrac(), failFrac.Unit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// summary is the last line of output: the one workload's result as it is,
// or all of them merged with metric names prefixed by their workload.
func summary(results []workloadResult) workloadResult {
	if len(results) == 1 {
		r := results[0]
		return workloadResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
	}
	all := workloadResult{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, v := range r.Metrics {
			all.Metrics[r.Workload+"/"+n] = v
		}
	}
	return all
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write result: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// gitCommit reads the checked-out commit from the nearest .git directory
// above the working directory, without running git; "unknown" outside a
// repository (the acceptance driver's checkouts are not one).
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(sha))
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
