package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// TestTraceDisabledRefactorZeroAlloc pins the observability tax when
// tracing is off: with Options.Trace nil, the instrumented sweeps must
// still perform zero allocations in the Refactor steady state — the
// disabled recorder path is a single pointer test, no clock reads, no
// event writes. A regression here means instrumentation leaked into the
// hot path.
func TestTraceDisabledRefactorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randCircuit(rng, 400, 0.6)
	opts := optsWithThreads(1)
	opts.Trace = nil // explicit: the disabled-recorder contract under test
	num, err := FactorDirect(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if num.Sym.NumNDBlocks() == 0 {
		t.Fatal("want an ND block in the zero-alloc sweep")
	}
	steps := make([]*sparse.CSC, 4)
	for i := range steps {
		steps[i] = matgen.TransientStep(base, i+1, 99)
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
		t.Fatalf("steady-state Refactor with tracing disabled allocates: %v allocs/op", allocs)
	}
	solveCheck(t, steps[i%len(steps)], num, 1e-7)
}

// TestTraceConcurrentRecording runs the full pipeline — analyze, parallel
// factor, refactor, partial refactor — with a live recorder and several
// workers recording into the shared ring. Under -race this proves the
// lock-free recording path; the summary assertions prove every sweep
// reported through the recorder.
func TestTraceConcurrentRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randCircuit(rng, 600, 0.6)
	rec := trace.NewRecorder(0)
	opts := optsWithThreads(4)
	opts.Trace = rec
	num, err := FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if num.Sym.NumNDBlocks() == 0 {
		t.Fatal("want an ND block so the 2D schedule records")
	}
	for step := 1; step <= 3; step++ {
		if err := num.Refactor(matgen.TransientStep(a, step, 99)); err != nil {
			t.Fatalf("refactor step %d: %v", step, err)
		}
	}
	last := matgen.TransientStep(a, 3, 99)
	if err := num.RefactorPartial(last, []int{0, 1, 2}); err != nil {
		t.Fatalf("partial refactor: %v", err)
	}
	solveCheck(t, last, num, 1e-7)

	for _, phase := range []trace.Phase{trace.PhaseAnalyze, trace.PhaseFactor, trace.PhaseRefactor, trace.PhasePartial} {
		sum, ok := rec.LastSummary(phase)
		if !ok {
			t.Fatalf("no %v summary", phase)
		}
		if sum.Events == 0 {
			t.Fatalf("%v summary recorded no events", phase)
		}
		if sum.WallSeconds <= 0 || sum.WorkSeconds <= 0 {
			t.Fatalf("%v summary has empty timings: %+v", phase, sum)
		}
		if len(sum.Workers) == 0 {
			t.Fatalf("%v summary has no worker lanes", phase)
		}
	}
	if sum, _ := rec.LastSummary(trace.PhaseFactor); sum.Parallelism <= 0 {
		t.Fatalf("factor parallelism = %v, want > 0", sum.Parallelism)
	}
	if num.LastDirtyBlocks() < 1 {
		t.Fatalf("partial refactor dirty blocks = %d, want >= 1", num.LastDirtyBlocks())
	}
	if num.DirtyBlocksTotal() < int64(num.LastDirtyBlocks()) {
		t.Fatalf("dirty total %d < last %d", num.DirtyBlocksTotal(), num.LastDirtyBlocks())
	}
	if num.SyncWaitSeconds() < 0 {
		t.Fatalf("negative sync wait: %v", num.SyncWaitSeconds())
	}
	if c := rec.CumulativeSeconds(); c["refactor_sweeps"] != 3 {
		t.Fatalf("refactor_sweeps = %v, want 3", c["refactor_sweeps"])
	}
}

// BenchmarkTraceFactor compares the fresh-factorization path with the
// recorder off and on, so the observability tax is a measured number
// (acceptance: enabled tracing costs <= ~5% on the factor trajectory).
func BenchmarkTraceFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randCircuit(rng, 2000, 0.6)
	for _, cfg := range []struct {
		name string
		rec  *trace.Recorder
	}{{"off", nil}, {"on", trace.NewRecorder(0)}} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := optsWithThreads(4)
			opts.Trace = cfg.rec
			num, err := FactorDirect(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := num.FactorInto(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTraceChromeGolden factors and refactors with tracing on, exports
// the Chrome trace, and checks the JSON is well-formed and the events
// nest: every duration is non-negative and no two events on the same
// lane (Chrome tid) overlap — each lane is one goroutine's sequential
// timeline, so overlap would mean broken timestamps.
func TestTraceChromeGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randCircuit(rng, 500, 0.6)
	rec := trace.NewRecorder(0)
	opts := optsWithThreads(4)
	opts.Trace = rec
	num, err := FactorDirect(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := num.Refactor(matgen.TransientStep(a, 1, 99)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	type span struct{ ts, dur float64 }
	lanes := map[int64][]span{}
	complete := 0
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Dur < 0 {
			t.Fatalf("event %q on tid %d has negative duration %v", ev.Name, ev.Tid, ev.Dur)
		}
		lanes[ev.Tid] = append(lanes[ev.Tid], span{ev.Ts, ev.Dur})
	}
	if complete == 0 {
		t.Fatal("no complete events in trace")
	}
	if len(lanes) < 2 {
		t.Fatalf("only %d lanes; want driver plus workers", len(lanes))
	}
	// Each lane is a single goroutine: sorted by start, an event must not
	// begin before its predecessor ends (epsilon absorbs the ns→µs float
	// conversion of the export).
	const eps = 1e-3
	for tid, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool { return spans[i].ts < spans[j].ts })
		for i := 1; i < len(spans); i++ {
			prevEnd := spans[i-1].ts + spans[i-1].dur
			if spans[i].ts < prevEnd-eps {
				t.Fatalf("tid %d: event at %vus starts before predecessor ends (%vus)",
					tid, spans[i].ts, prevEnd)
			}
		}
	}
}

// TestTraceAnalyzeCoverage pins the attribution of the symbolic phase: on
// the Xyce1 class (small BTF blocks beside one fine-ND block) the
// analyze-phase events — BTF, the permuted-matrix gather, per-block AMD, the
// four fine-ND stages, the plan — must account for at least 90% of the
// analyze sweep's wall clock at one thread, with every fine-ND stage
// present. Best of five, so one preempted run does not decide.
func TestTraceAnalyzeCoverage(t *testing.T) {
	var a *sparse.CSC
	for _, m := range matgen.TableISuite(1) {
		if m.Name == "Xyce1" {
			a = m.Gen()
		}
	}
	best := 0.0
	for attempt := 0; attempt < 5 && best < 0.9; attempt++ {
		rec := trace.NewRecorder(1 << 12)
		opts := DefaultOptions()
		opts.Trace = rec
		if _, err := Analyze(a, opts); err != nil {
			t.Fatal(err)
		}
		sum, ok := rec.LastSummary(trace.PhaseAnalyze)
		if !ok || sum.Dropped != 0 {
			t.Fatalf("analyze sweep summary missing or truncated: %+v", sum)
		}
		seen := map[trace.Kind]bool{}
		for _, ev := range rec.Events() {
			seen[ev.Kind] = true
		}
		for _, k := range []trace.Kind{trace.KindAnalyzeBTF, trace.KindGather, trace.KindAnalyzeAMD,
			trace.KindAnalyzeNDMatch, trace.KindAnalyzeNDDissect, trace.KindAnalyzeNDLocalAMD,
			trace.KindAnalyzeNDEstimate, trace.KindAnalyzePlan} {
			if !seen[k] {
				t.Fatalf("no %v event in the analyze sweep", k)
			}
		}
		best = max(best, sum.WorkSeconds/sum.WallSeconds)
	}
	if best < 0.9 {
		t.Errorf("analyze events cover %.0f%% of the analyze sweep, want at least 90%%", 100*best)
	}
}
