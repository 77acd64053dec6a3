package core

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/matgen"
)

// coldClasses are the benchmark's seven cold_factor classes at full scale.
func coldClasses() []matgen.Named {
	cold := matgen.Fig5Subset(1)
	for _, m := range matgen.TableISuite(1) {
		if m.Name == "Xyce1" {
			cold = append(cold, m)
		}
	}
	return cold
}

var analyzeSink *Symbolic

// BenchmarkAnalyzeCold times one serial Analyze per cold_factor class — the
// part of a first-contact op that is neither assembly nor numeric work.
func BenchmarkAnalyzeCold(b *testing.B) {
	for _, m := range coldClasses() {
		a := m.Gen()
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sym, err := Analyze(a, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				analyzeSink = sym
			}
		})
	}
}

// TestAnalyzeAllocBudget pins Analyze's allocation count: what remains
// after the per-block kernels moved onto pooled workspaces is the retained
// Symbolic and plan, O(blocks) — not O(blocks × kernels) as when every
// kernel rebuilt its own A+Aᵀ and scratch (61 619 / 27 103 / 19 685
// allocations on these three classes before).
func TestAnalyzeAllocBudget(t *testing.T) {
	budget := map[string]float64{"Power0": 9000, "Xyce1": 5000, "Freescale1": 3000}
	for _, m := range coldClasses() {
		ceil, ok := budget[m.Name]
		if !ok {
			continue
		}
		a := m.Gen()
		allocs := testing.AllocsPerRun(3, func() {
			sym, err := Analyze(a, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			analyzeSink = sym
		})
		t.Logf("%s: %.0f allocs per Analyze (budget %.0f)", m.Name, allocs, ceil)
		if allocs > ceil {
			t.Errorf("%s: %.0f allocs per Analyze, budget %.0f", m.Name, allocs, ceil)
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() int {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.Atoi(string(f[1]))
	return id
}

// TestAnalyzeSingleGoroutine pins Threads: 1 to the caller's goroutine: a
// caller that set it to stay there (the serving pool does) must not fan out
// inside Analyze. The Algorithm 3 estimates used to start one goroutine per
// leaf and per separator whatever the thread count. With a single P,
// goroutine ids are handed out strictly in creation order, so a probe
// goroutine started right after Analyze gets the id following the probe
// started right before it exactly when nothing in between started one. The
// runtime may start a goroutine of its own at any time, which can only
// widen the gap: one attempt with a gap of one proves the point, and an
// Analyze that spawns never produces one.
func TestAnalyzeSingleGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	probe := func() int {
		ch := make(chan int)
		go func() { ch <- goid() }()
		return <-ch
	}
	for _, m := range coldClasses() {
		if m.Name != "Xyce1" && m.Name != "Power0" {
			continue
		}
		a := m.Gen()
		gap := 0
		for attempt := 0; attempt < 5 && gap != 1; attempt++ {
			before := probe()
			if _, err := Analyze(a, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			gap = probe() - before
		}
		if gap != 1 {
			t.Errorf("%s: Analyze at Threads 1 started goroutines (id gap %d, want 1)", m.Name, gap)
		}
	}
}
