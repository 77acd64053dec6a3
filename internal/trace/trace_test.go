package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestTraceNilRecorder pins the disabled fast path: every method on a nil
// *Recorder is a safe no-op, so instrumented hot loops need only a nil
// check and the zero-alloc contracts of the refactor pipeline hold.
func TestTraceNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Now() != 0 {
		t.Fatal("nil recorder Now() != 0")
	}
	r.Record(Event{Start: 1, End: 2})
	sweep := r.BeginSweep(PhaseFactor)
	sweep.End()
	if ev := r.Events(); ev != nil {
		t.Fatalf("nil recorder has events: %v", ev)
	}
	if _, ok := r.LastSummary(PhaseFactor); ok {
		t.Fatal("nil recorder has a summary")
	}
	if s := r.Summaries(); len(s) != 0 {
		t.Fatalf("nil recorder summaries: %v", s)
	}
	if c := r.CumulativeSeconds(); len(c) != 0 {
		t.Fatalf("nil recorder cumulative: %v", c)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil recorder trace is not JSON: %v", err)
	}
}

// TestTraceSummaryMath checks the summary aggregation on hand-built
// events: work/wait totals, sync fraction, imbalance, per-worker rollup,
// straggler ranking, and phase filtering.
func TestTraceSummaryMath(t *testing.T) {
	r := NewRecorder(64)
	sweep := r.BeginSweep(PhaseRefactor)
	r.Record(Event{Start: 0, End: 3e6, Wait: 1e6, Worker: 0, Block: 7, Kind: KindSmallBlock, Phase: PhaseRefactor})
	r.Record(Event{Start: 0, End: 1e6, Wait: 0, Worker: 1, Block: 9, Kind: KindNDKernel, Phase: PhaseRefactor})
	// A different phase's event must not leak into this sweep's summary.
	r.Record(Event{Start: 0, End: 5e6, Worker: 2, Block: 1, Kind: KindGather, Phase: PhaseFactor})
	sweep.End()

	sum, ok := r.LastSummary(PhaseRefactor)
	if !ok {
		t.Fatal("no refactor summary")
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if sum.Events != 2 || sum.Dropped != 0 {
		t.Fatalf("events = %d dropped = %d, want 2, 0", sum.Events, sum.Dropped)
	}
	if !approx(sum.WorkSeconds, 4e-3) {
		t.Fatalf("work = %v, want 4ms", sum.WorkSeconds)
	}
	if !approx(sum.WaitSeconds, 1e-3) {
		t.Fatalf("wait = %v, want 1ms", sum.WaitSeconds)
	}
	if !approx(sum.SyncFraction, 0.2) {
		t.Fatalf("sync fraction = %v, want 0.2", sum.SyncFraction)
	}
	if !approx(sum.Imbalance(), 1.5) {
		t.Fatalf("imbalance = %v, want 1.5", sum.Imbalance())
	}
	if len(sum.Workers) != 2 || sum.Workers[0].Worker != 0 || sum.Workers[1].Worker != 1 {
		t.Fatalf("workers = %+v, want lanes 0,1 ascending", sum.Workers)
	}
	if !approx(sum.Workers[0].BusySeconds, 3e-3) || !approx(sum.Workers[0].WaitSeconds, 1e-3) {
		t.Fatalf("worker 0 rollup = %+v", sum.Workers[0])
	}
	if len(sum.Stragglers) != 2 || sum.Stragglers[0].Block != 7 || sum.Stragglers[0].Kind != KindSmallBlock {
		t.Fatalf("stragglers = %+v, want block 7 first", sum.Stragglers)
	}
	if sum.String() == "" {
		t.Fatal("empty summary string")
	}
	// The factor-phase event never got a sweep, so no factor summary exists.
	if _, ok := r.LastSummary(PhaseFactor); ok {
		t.Fatal("unexpected factor summary")
	}
}

// TestTraceRingWrapDropped checks that overflowing the ring keeps the
// newest events and reports the loss in the sweep summary.
func TestTraceRingWrapDropped(t *testing.T) {
	r := NewRecorder(8)
	sweep := r.BeginSweep(PhaseFactor)
	for i := 0; i < 20; i++ {
		r.Record(Event{Start: int64(i), End: int64(i) + 1, Block: int32(i), Phase: PhaseFactor})
	}
	sweep.End()
	sum, ok := r.LastSummary(PhaseFactor)
	if !ok {
		t.Fatal("no summary")
	}
	if sum.Events != 8 || sum.Dropped != 12 {
		t.Fatalf("events = %d dropped = %d, want 8, 12", sum.Events, sum.Dropped)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("len(events) = %d, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := int32(12 + i); ev.Block != want {
			t.Fatalf("events[%d].Block = %d, want %d (oldest-first, newest kept)", i, ev.Block, want)
		}
	}
}

// TestTraceConcurrentRecord hammers the ring from many goroutines; under
// -race this proves Record is safe for concurrent workers, and the final
// count proves no slot reservation was lost.
func TestTraceConcurrentRecord(t *testing.T) {
	const workers, per = 8, 500
	r := NewRecorder(workers * per)
	sweep := r.BeginSweep(PhaseFactor)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				start := r.Now()
				r.Record(Event{Start: start, End: r.Now(), Worker: int32(w), Block: int32(i), Phase: PhaseFactor})
			}
		}(w)
	}
	wg.Wait()
	sweep.End()
	sum, ok := r.LastSummary(PhaseFactor)
	if !ok {
		t.Fatal("no summary")
	}
	if sum.Events != workers*per || sum.Dropped != 0 {
		t.Fatalf("events = %d dropped = %d, want %d, 0", sum.Events, sum.Dropped, workers*per)
	}
	if len(sum.Workers) != workers {
		t.Fatalf("worker lanes = %d, want %d", len(sum.Workers), workers)
	}
}

// TestTraceCumulativeSeconds checks the expvar-facing totals accumulate
// across sweeps and omit phases that never ran.
func TestTraceCumulativeSeconds(t *testing.T) {
	r := NewRecorder(64)
	for i := 0; i < 3; i++ {
		sweep := r.BeginSweep(PhaseRefactor)
		r.Record(Event{Start: 0, End: 2e6, Wait: 5e5, Phase: PhaseRefactor})
		sweep.End()
	}
	c := r.CumulativeSeconds()
	if c["refactor_sweeps"] != 3 {
		t.Fatalf("refactor_sweeps = %v, want 3", c["refactor_sweeps"])
	}
	if got, want := c["refactor_work_seconds"], 3*2e-3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("refactor_work_seconds = %v, want %v", got, want)
	}
	if got, want := c["refactor_wait_seconds"], 3*5e-4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("refactor_wait_seconds = %v, want %v", got, want)
	}
	if c["refactor_wall_seconds"] <= 0 {
		t.Fatalf("refactor_wall_seconds = %v, want > 0", c["refactor_wall_seconds"])
	}
	if _, ok := c["factor_sweeps"]; ok {
		t.Fatal("factor totals present without a factor sweep")
	}
}

// TestTraceLaneNames pins the lane-id scheme the Chrome export's thread
// names rely on.
func TestTraceLaneNames(t *testing.T) {
	cases := []struct {
		worker int32
		want   string
	}{
		{DriverWorker, "driver"},
		{0, "worker-0"},
		{3, "worker-3"},
		{NDWorker(3, 2), "nd3-w2"},
		{NDWorker(0, 0), "nd0-w0"},
	}
	for _, c := range cases {
		if got := LaneName(c.worker); got != c.want {
			t.Errorf("LaneName(%d) = %q, want %q", c.worker, got, c.want)
		}
	}
}

// TestTraceChromeWellFormed checks the exporter emits parseable Chrome
// trace-event JSON: process/thread metadata for every lane, "X" events
// with non-negative durations, and block/wait args.
func TestTraceChromeWellFormed(t *testing.T) {
	r := NewRecorder(64)
	r.Record(Event{Start: 100, End: 2100, Worker: DriverWorker, Block: 0, Kind: KindGather, Phase: PhaseFactor})
	r.Record(Event{Start: 2200, End: 9200, Wait: 300, Worker: 1, Block: 4, Kind: KindSmallBlock, Phase: PhaseFactor})
	r.Record(Event{Start: 2500, End: 8000, Worker: NDWorker(2, 1), Block: 2, Kind: KindNDKernel, Phase: PhaseFactor})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if out.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", out.DisplayUnit)
	}
	meta, complete := 0, 0
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Fatalf("event %q has negative duration %v", ev.Name, ev.Dur)
			}
			if _, ok := ev.Args["block"]; !ok {
				t.Fatalf("event %q missing block arg", ev.Name)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	// process_name plus one thread_name per distinct lane.
	if meta != 1+3 {
		t.Fatalf("metadata events = %d, want 4", meta)
	}
}
