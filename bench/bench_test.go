package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input must give NaN")
	}
}

func TestSegmentMedian(t *testing.T) {
	// Two disturbed segments of five must not move the statistic; three do.
	segs := [][]float64{{2, 3, 4}, {100, 200, 300}, {1, 2, 3}, {}, {2, 2, 9}, {50, 60, 70}}
	if got := segmentMedian(segs, median); got != 3 {
		t.Errorf("median of per-segment medians = %v, want 3", got)
	}
	max := func(xs []float64) float64 { return percentile(xs, 100) }
	if got := segmentMedian(segs, max); got != 9 {
		t.Errorf("median of per-segment maxima = %v, want 9", got)
	}
	if got := segmentMedian(append(segs, []float64{80, 90, 95}, []float64{80, 90, 95}), median); got != 60 {
		t.Errorf("mostly disturbed run: got %v, want 60", got)
	}
	if !math.IsNaN(segmentMedian(nil, median)) {
		t.Error("no segments must give NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 values = %v, %v", q1, q3)
	}
}

func TestSpeedup(t *testing.T) {
	// Three segments; the third is disturbed on both sides and the baseline
	// never ran class 2.
	ops := [][]sample{
		{{1, 0}, {1, 0}, {4, 1}, {4, 1}, {7, 2}},
		{{1, 0}, {4, 1}},
		{{3, 0}, {9, 1}},
	}
	base := [][]sample{
		{{2, 0}, {2, 0}, {2, 1}, {2, 1}},
		{{2, 0}, {2, 1}},
		{{6, 0}, {9, 1}},
	}
	// Per segment: geomean of 2/1 and 2/4 = 1; the same; geomean of 2 and 1.
	if got := speedup(ops, base, true); !near(got, 1) {
		t.Errorf("per-class speedup = %v, want 1", got)
	}
	// Pooled medians per segment: 2/4, 2/2.5, 7.5/6.
	if got := speedup(ops, base, false); !near(got, 0.8) {
		t.Errorf("pooled speedup = %v, want 0.8", got)
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "refresh", Start: 10, End: 70, Parent: 0},
		{Name: "kernel", Start: 20, End: 50, Parent: 1},
		{Name: "solve", Start: 70, End: 95, Parent: 0},
		{Name: "op", Start: 100, End: 200, Parent: -1, Op: 1},
		{Name: "solve", Start: 100, End: 200, Parent: 4, Op: 1},
	}
	self := selfTimes(spans)
	want := map[string]int64{"op": 15, "refresh": 30, "kernel": 30, "solve": 125}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	if got := coverage(spans); !near(got, (0.85+1)/2) {
		t.Errorf("coverage = %v, want 0.925", got)
	}
	var r *recorder // a nil recorder is a disabled one
	r.end(r.begin("x", -1, 0, 0))
}

func TestChromeTraceLoads(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("op", -1, 7, 1)
	rec.end(rec.begin("child", root, 7, 1))
	rec.end(root)
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChromeTrace(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != 0 || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("unexpected trace: %+v", doc.TraceEvents)
	}
}

// denseFactors returns the patterns of the L (unit diagonal stored) and U
// factors of a dense n×n matrix.
func denseFactors(n int) (l, u *sparse.CSC) {
	lc, uc := sparse.NewCOO(n, n, n*n), sparse.NewCOO(n, n, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i >= j {
				lc.Add(i, j, 1)
			}
			if i <= j {
				uc.Add(i, j, 1)
			}
		}
	}
	return lc.ToCSC(false), uc.ToCSC(false)
}

func TestLUFlops(t *testing.T) {
	// Dense LU costs 2n³/3 − n²/2 − n/6 flops.
	for _, n := range []int{1, 3, 10} {
		l, u := denseFactors(n)
		want := (4*n*n*n - 3*n*n - n) / 6
		if got := luFlops(l, u); got != int64(want) {
			t.Errorf("n=%d: luFlops = %d, want %d", n, got, want)
		}
	}
	// A diagonal matrix costs nothing.
	d := sparse.NewCOO(4, 4, 4)
	for i := 0; i < 4; i++ {
		d.Add(i, i, 1)
	}
	if got := luFlops(d.ToCSC(false), d.ToCSC(false)); got != 0 {
		t.Errorf("diagonal: luFlops = %d, want 0", got)
	}
}

func TestCheckerAndOracle(t *testing.T) {
	c := sparse.NewCOO(2, 2, 3)
	c.Add(0, 0, 2)
	c.Add(1, 0, 1)
	c.Add(1, 1, 4)
	a := c.ToCSC(false)
	x, b := []float64{1, 1}, []float64{2, 5}
	chk := newChecker(2)
	if r := chk.residual(a, x, b); r != 0 {
		t.Errorf("exact solution: residual %v", r)
	}
	if chk.ok(a, []float64{1, 1.001}, b) {
		t.Error("a 1e-3 error must fail the residual check")
	}
	if chk.ok(a, []float64{math.NaN(), 1}, b) {
		t.Error("a NaN solution must fail the residual check")
	}
	if !agree([]float64{1, 2}, []float64{1, 2 + 1e-10}) || agree([]float64{1, 2}, []float64{1, 2.001}) {
		t.Error("oracle agreement tolerance is off")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.07}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		def  metricDef
		cand []float64
		want string
	}{
		{lower, []float64{10.2, 10.3, 10.1, 10.2, 10.25}, verdictWithin},
		{lower, []float64{11, 11.1, 10.9, 11, 11.05}, verdictWorse},
		{lower, []float64{9, 9.1, 8.9, 9, 9.05}, verdictBetter},
		{higher, []float64{11, 11.1, 10.9, 11, 11.05}, verdictBetter},
		{higher, []float64{9, 9.1, 8.9, 9, 9.05}, verdictWorse},
		{lower, []float64{8, 12, 9, 11, 10.2}, verdictUnresolved},
	} {
		if got, _ := judge(c.def, steady, c.cand); got != c.want {
			t.Errorf("judge(%s, %v) = %s, want %s", c.def.Name, c.cand, got, c.want)
		}
	}
	// fail_frac: no increase, and zero is a valid baseline.
	for _, c := range []struct {
		base, cand float64
		want       string
	}{{0, 0, verdictWithin}, {0, 0.001, verdictWorse}, {0.01, 0, verdictBetter}, {0.01, 0.01, verdictWithin}} {
		if got, _ := judge(failFrac, []float64{c.base}, []float64{c.cand}); got != c.want {
			t.Errorf("judge(fail_frac, %v -> %v) = %s, want %s", c.base, c.cand, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name, workload string, p50 float64, failed int, traced bool) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			rec := record{Provenance: provenance{Traced: traced}, Workloads: []workloadResult{{Workload: workload, Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"op_p50_ms": {Value: p50 + 0.01*float64(i), Unit: "ms"}}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", "xyce_step", 5, 0, false)
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, cand string
		want       int
		verdict    string
	}{
		{"same", write("same.jsonl", "xyce_step", 5.1, 0, false), 0, verdictWithin},
		{"slow", write("slow.jsonl", "xyce_step", 7, 0, false), 1, verdictWorse},
		{"failed ops", write("failed.jsonl", "xyce_step", 5, 1, false), 1, verdictWorse},
		{"other workload", write("other.jsonl", "xyce_local", 5, 0, false), 1, verdictMissing},
		{"traced only", write("traced.jsonl", "xyce_step", 5, 0, true), 1, verdictMissing},
		{"empty", empty, 1, verdictMissing},
	} {
		var out, errOut bytes.Buffer
		if code := realMain([]string{"compare", a, c.cand}, &out, &errOut); code != c.want {
			t.Errorf("%s: compare exited %d, want %d:\n%s%s", c.name, code, c.want, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: verdict %q missing from output:\n%s", c.name, c.verdict, out.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"compare", empty, a}, &out, &errOut); code != 2 {
		t.Errorf("empty baseline: compare exited %d, want 2", code)
	}
}

// runSmoke runs the harness in process at the smoke sizing and returns the
// parsed last line of its output.
func runSmoke(t *testing.T, args ...string) workloadResult {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := realMain(append([]string{"-smoke"}, args...), &out, &errOut); code != 0 {
		t.Fatalf("bench %v exited %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res workloadResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

func checkMetrics(t *testing.T, res workloadResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Attempted <= 0 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", def.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", def.Name, v.Value)
		case v.Unit != def.Unit:
			t.Errorf("metric %s has unit %q, want %q", def.Name, v.Unit, def.Unit)
		}
	}
}

// TestSmoke runs all six workloads, untraced and traced, at n≈10³.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runSmoke(t, "-workload", w.name, "-seconds", "0.5", "-out", filepath.Join(dir, "runs.jsonl"))
			checkMetrics(t, res, endToEnd)
			for _, def := range endToEnd {
				if res.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", def.Name, res.Metrics[def.Name].Value)
				}
			}
			trace := filepath.Join(dir, w.name+".json")
			res = runSmoke(t, "-workload", w.name, "-seconds", "0.5", "-trace", "1", "-trace-out", trace)
			checkMetrics(t, res, perLayer)
			if cov := res.Metrics["harness.span_coverage"].Value; cov < 0.95 {
				t.Errorf("child spans cover %.3f of an op, want ≥ 0.95", cov)
			}
			raw, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace does not load: %v (%d events)", err, len(doc.TraceEvents))
			}
		})
	}
	runs, err := readRuns(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs.values) != len(workloads) {
		t.Errorf("-out file holds %d workloads, want %d", len(runs.values), len(workloads))
	}
	var out bytes.Buffer
	if code := compareRuns(runs, runs, &out); code != 0 {
		t.Errorf("a run compared with itself exited %d:\n%s", code, out.String())
	}
}

// TestContractMatchesRegistry keeps BENCHMARK.json, the README glossary and
// the metric tables in this package naming the same things.
func TestContractMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no contract beside the benchmark: %v", err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, harness has %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if contract.Workloads[i].Name != w.name || contract.Workloads[i].Why != w.why {
			t.Errorf("workload %d: contract has %+v, harness has %s: %s", i, contract.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: contract lists %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: contract %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd)
	same("per_layer", contract.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range append(append([]metricDef{failFrac}, endToEnd...), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+def.Name+"`")) {
			t.Errorf("README.md glossary does not name %s", def.Name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not describe %s", w.name)
		}
	}
}
