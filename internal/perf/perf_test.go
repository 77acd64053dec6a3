package perf

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 4", g)
	}
	if g := GeoMean([]float64{5}); g != 5 {
		t.Fatalf("GeoMean = %v, want 5", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v, want 0", g)
	}
	// Non-positive and infinite entries ignored.
	if g := GeoMean([]float64{0, -1, math.Inf(1), 3}); math.Abs(g-3) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 3", g)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10, 2); s != 5 {
		t.Fatalf("Speedup = %v", s)
	}
	if s := Speedup(1, 0); !math.IsInf(s, 1) {
		t.Fatalf("Speedup by zero = %v", s)
	}
}

func TestTimeMeasures(t *testing.T) {
	sec := Time(time.Millisecond, func() { time.Sleep(200 * time.Microsecond) })
	if sec <= 0 || sec > 0.1 {
		t.Fatalf("Time = %v, implausible", sec)
	}
}

func sampleSet() []Sample {
	return []Sample{
		{Matrix: "m1", Solver: "A", Seconds: 1},
		{Matrix: "m1", Solver: "B", Seconds: 2},
		{Matrix: "m2", Solver: "A", Seconds: 3},
		{Matrix: "m2", Solver: "B", Seconds: 1},
		{Matrix: "m3", Solver: "A", Seconds: 1},
		{Matrix: "m3", Solver: "B", Failed: true},
	}
}

func TestFractionBest(t *testing.T) {
	s := sampleSet()
	if f := FractionBest(s, "A"); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("FractionBest(A) = %v, want 2/3", f)
	}
	if f := FractionBest(s, "B"); math.Abs(f-1.0/3) > 1e-12 {
		t.Fatalf("FractionBest(B) = %v, want 1/3", f)
	}
}

func TestProfiles(t *testing.T) {
	prof := Profiles(sampleSet(), 10)
	a := prof["A"]
	if len(a) != 3 {
		t.Fatalf("profile A has %d points, want 3", len(a))
	}
	// A is best on m1 and m3 (x=1) and 3x on m2.
	if a[0].X != 1 || a[1].X != 1 || a[2].X != 3 {
		t.Fatalf("profile A xs = %v", a)
	}
	if math.Abs(a[2].Fraction-1) > 1e-12 {
		t.Fatalf("profile A final fraction = %v", a[2].Fraction)
	}
	// B fails on m3, so its curve tops out at 2/3.
	b := prof["B"]
	if b[len(b)-1].Fraction > 2.0/3+1e-12 {
		t.Fatalf("profile B should top out at 2/3, got %v", b[len(b)-1].Fraction)
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"name", "v"}, [][]string{{"alpha", "1"}, {"b", "22"}})
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}

func TestTrendLine(t *testing.T) {
	a, b := TrendLine([]float64{1, 2, 3}, []float64{2, 4, 6})
	if math.Abs(a) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Fatalf("trend = %v + %v x, want 0 + 2x", a, b)
	}
	a, b = TrendLine(nil, nil)
	if a != 0 || b != 0 {
		t.Fatal("empty trend should be zero")
	}
}
