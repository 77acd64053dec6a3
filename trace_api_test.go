package basker

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// TestTracePublicAPI drives the exported observability surface end to
// end: a Tracer attached via Options.Trace, per-sweep Profiles for every
// pipeline phase touched — a Refactor that finds a local change traced as
// PhasePartial — the Chrome trace export, and the extended Stats counters.
func TestTracePublicAPI(t *testing.T) {
	tr := NewTracer(0)
	base := matgen.XyceSequenceBase(0.1)
	f, err := New(Options{Threads: 4, BigBlockMin: 64, Trace: tr}).Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	var last *Matrix
	for step := 1; step <= 3; step++ {
		last = matgen.TransientStep(base, step, 5)
		if err := f.Refactor(last); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if _, ok := f.Profile(PhasePartial); ok {
		t.Fatal("full restamps traced a partial sweep")
	}
	last = matgen.PerturbColumns(last, matgen.ChangeSet(base.N, 0.02, 3, true), 4, 5)
	if err := f.Refactor(last); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, last.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, last.N)
	last.MulVec(b, x)
	f.Solve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, b[i], x[i])
		}
	}

	for _, phase := range []Phase{PhaseAnalyze, PhaseFactor, PhaseRefactor, PhasePartial} {
		p, ok := f.Profile(phase)
		if !ok {
			t.Fatalf("no %v profile", phase)
		}
		if p.Events == 0 || p.WallSeconds <= 0 {
			t.Fatalf("%v profile is empty: %+v", phase, p)
		}
	}
	if got := len(f.Profiles()); got < 6 { // analyze + factor + 4 refactors
		t.Fatalf("profiles = %d, want >= 6", got)
	}

	var buf bytes.Buffer
	if err := f.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteTrace output is not JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("WriteTrace emitted no events")
	}

	st := f.Stats(last)
	if st.SyncWaitSeconds < 0 || st.SyncWaits < 0 {
		t.Fatalf("negative sync accounting: %+v", st)
	}
	if st.PivotFallbacks < 0 || st.DenseKernelHits < 0 {
		t.Fatalf("negative counters: %+v", st)
	}
	if st.DenseKernels < 0 || st.DirtyBlocks < 0 || st.DirtyBlocksTotal < 0 {
		t.Fatalf("negative block counters: %+v", st)
	}
}

// TestTraceWriteTraceNilTracer pins WriteTrace's behavior without a
// tracer: a valid, empty Chrome trace rather than an error.
func TestTraceWriteTraceNilTracer(t *testing.T) {
	base := matgen.XyceSequenceBase(0.1)
	f, err := New(Options{Threads: 1, BigBlockMin: 64}).Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty trace is not JSON: %v", err)
	}
	if len(out.TraceEvents) != 0 {
		t.Fatalf("expected no events, got %d", len(out.TraceEvents))
	}
}

// TestTraceExpvarBridge publishes the pool counters and tracer totals and
// reads them back through the expvar registry, the way a /debug/vars
// scrape would.
func TestTraceExpvarBridge(t *testing.T) {
	tr := NewTracer(0)
	base := matgen.XyceSequenceBase(0.1)
	pool := NewPool(PoolOptions{Options: Options{Threads: 2, BigBlockMin: 64, Trace: tr}})
	lease, err := pool.Factor(base)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()

	// expvar names are global and Publish panics on reuse, so the names
	// are test-specific and published exactly once.
	pool.PublishExpvar("basker_test_pool")
	PublishTraceExpvar("basker_test_trace", tr)

	var ps PoolStats
	if err := json.Unmarshal([]byte(expvar.Get("basker_test_pool").String()), &ps); err != nil {
		t.Fatalf("pool expvar is not JSON: %v", err)
	}
	if ps.Misses < 1 {
		t.Fatalf("pool stats missing the factor miss: %+v", ps)
	}
	var totals map[string]float64
	if err := json.Unmarshal([]byte(expvar.Get("basker_test_trace").String()), &totals); err != nil {
		t.Fatalf("trace expvar is not JSON: %v", err)
	}
	if totals["factor_sweeps"] < 1 {
		t.Fatalf("trace totals missing factor sweep: %v", totals)
	}
	if totals["analyze_sweeps"] < 1 {
		t.Fatalf("trace totals missing analyze sweep: %v", totals)
	}
}
