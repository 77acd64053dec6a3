package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// The verdicts `compare` gives one end-to-end metric on one workload.
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // no regression seen, but the run-to-run spread is wider than the bound
	verdictMissing    = "missing"    // the baseline has the metric and the candidate does not; counts as worse
)

// judge applies def's bound to the runs of a baseline and a candidate:
// worse or better when the candidate's median differs from the baseline's
// by more than the bound, and otherwise within-bound — unless either side's
// interquartile spread exceeds the bound, in which case "no change" cannot
// be claimed. A bound of zero is the "no increase" rule.
func judge(def metricDef, base, cand []float64) (verdict string, change float64) {
	mb, mc := median(base), median(cand)
	change = mc - mb // signed so that positive is worse
	if def.Better == "higher" {
		change = -change
	}
	if mb != 0 {
		change /= math.Abs(mb)
	} else if change != 0 {
		change = math.Copysign(math.Inf(1), change)
	}
	switch {
	case change > def.Bound:
		return verdictWorse, change
	case change < -def.Bound:
		return verdictBetter, change
	case spread(base) > def.Bound || spread(cand) > def.Bound:
		return verdictUnresolved, change
	}
	return verdictWithin, change
}

// runSet is what `compare` reads from one -out file: per workload and
// metric the value of every untraced run, and the ops attempted and failed
// over all of them.
type runSet struct {
	values            map[string]map[string][]float64
	attempted, failed map[string]int
}

func readRuns(path string) (runSet, error) {
	rs := runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Provenance.Traced {
			continue
		}
		for _, w := range rec.Workloads {
			if rs.values[w.Workload] == nil {
				rs.values[w.Workload] = map[string][]float64{}
			}
			for name, v := range w.Metrics {
				rs.values[w.Workload][name] = append(rs.values[w.Workload][name], v.Value)
			}
			rs.attempted[w.Workload] += w.Attempted
			rs.failed[w.Workload] += w.Failed
		}
	}
	return rs, sc.Err()
}

// compareMain implements `bench compare A B`: A is the baseline, B the
// candidate, each a file of -out records (one or more runs). It exits 1 if
// any end-to-end metric on any workload is worse or missing, and 2 if there
// was nothing to compare.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASELINE.jsonl CANDIDATE.jsonl")
		return 2
	}
	base, err := readRuns(args[0])
	if err == nil {
		var cand runSet
		if cand, err = readRuns(args[1]); err == nil {
			if len(base.attempted) == 0 {
				err = fmt.Errorf("%s holds no untraced run", args[0])
			} else {
				return compareRuns(base, cand, stdout)
			}
		}
	}
	fmt.Fprintf(stderr, "bench compare: %v\n", err)
	return 2
}

func compareRuns(base, cand runSet, stdout io.Writer) int {
	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-12s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	row := func(w string, def metricDef, b, c []float64) {
		bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
		if def.Bound == 0 {
			bound = "none"
		}
		if len(c) == 0 {
			counts[verdictMissing]++
			fmt.Fprintf(stdout, "%-12s %-16s %12.5g %12s %8s %7s  %s\n", w, def.Name, median(b), "-", "-", bound, verdictMissing)
			return
		}
		verdict, change := judge(def, b, c)
		counts[verdict]++
		fmt.Fprintf(stdout, "%-12s %-16s %12.5g %12.5g %+7.1f%% %7s  %s\n",
			w, def.Name, median(b), median(c), 100*change, bound, verdict)
	}
	for _, w := range workloads {
		if base.attempted[w.name] == 0 {
			continue
		}
		for _, def := range endToEnd {
			if b := base.values[w.name][def.Name]; len(b) > 0 {
				row(w.name, def, b, cand.values[w.name][def.Name])
			}
		}
		// fail_frac pools every run of a side: one failed op anywhere in the
		// candidate is an increase over a clean baseline.
		var c []float64
		if n := cand.attempted[w.name]; n > 0 {
			c = []float64{float64(cand.failed[w.name]) / float64(n)}
		}
		row(w.name, failFrac, []float64{float64(base.failed[w.name]) / float64(base.attempted[w.name])}, c)
	}
	fmt.Fprintf(stdout, "%d better, %d within-bound, %d worse, %d unresolved, %d missing (change is signed so that positive is worse)\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved], counts[verdictMissing])
	if counts[verdictWorse]+counts[verdictMissing] > 0 {
		return 1
	}
	return 0
}
