package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestLanesPanicJoin panics one of four lanes, each on its own goroutine,
// while its siblings wait on it: the hook runs on the panicking lane's
// goroutine and releases them, every sibling finishes, and the panic
// reaches the caller only after the join, wrapped once in
// ErrInternalPanic with its value in the chain.
func TestLanesPanicJoin(t *testing.T) {
	const n, bad = 4, 2
	errBoom := errors.New("boom")
	release := make(chan struct{})
	var finished atomic.Int32
	ids := make([]int, n)
	hookID := -1
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = PanicError(r)
			}
		}()
		Lanes(n, func(lane int) {
			ids[lane] = goid()
			if lane == bad {
				panic(errBoom)
			}
			<-release
			finished.Add(1)
		}, func(lane int) {
			if lane != bad {
				t.Errorf("onPanic(%d), want lane %d", lane, bad)
			}
			hookID = goid()
			close(release)
		})
		return nil
	}()
	if !errors.Is(err, ErrInternalPanic) || !errors.Is(err, errBoom) {
		t.Fatalf("caller got %v, want ErrInternalPanic wrapping the panic value", err)
	}
	if got := finished.Load(); got != n-1 {
		t.Fatalf("%d siblings finished before the panic reached the caller, want %d", got, n-1)
	}
	if hookID != ids[bad] {
		t.Fatalf("onPanic ran on goroutine %d, the panicking lane on %d", hookID, ids[bad])
	}
	seen := map[int]bool{goid(): true}
	for lane, id := range ids {
		if seen[id] {
			t.Fatalf("lane %d shared goroutine %d with the caller or another lane", lane, id)
		}
		seen[id] = true
	}
	if PanicError(err) != err {
		t.Fatal("PanicError wrapped an ErrInternalPanic error a second time")
	}
}

// TestLanesSingleLaneInline checks that one lane runs on the caller's
// goroutine and starts none, and that Lanes without a panic returns
// normally after every lane ran once.
func TestLanesSingleLaneInline(t *testing.T) {
	before, me := runtime.NumGoroutine(), goid()
	ran := 0
	Lanes(1, func(lane int) {
		ran++
		if lane != 0 || goid() != me {
			t.Errorf("lane %d ran off the caller's goroutine", lane)
		}
		if now := runtime.NumGoroutine(); now != before {
			t.Errorf("one lane started %d goroutines", now-before)
		}
	}, nil)
	if ran != 1 {
		t.Fatalf("one lane ran %d times", ran)
	}
	var seen [8]atomic.Int32
	Lanes(len(seen), func(lane int) { seen[lane].Add(1) }, nil)
	for lane := range seen {
		if got := seen[lane].Load(); got != 1 {
			t.Fatalf("lane %d ran %d times", lane, got)
		}
	}
}

// TestParallelBlocksPanicReachesCaller panics one block of Analyze's
// fan-out at four lanes: every other block still runs, and the panic
// reaches the caller after the join as ErrInternalPanic instead of ending
// the process from a lane.
func TestParallelBlocksPanicReachesCaller(t *testing.T) {
	const nblocks, bad = 64, 17
	var ran atomic.Int32
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = PanicError(r)
			}
		}()
		parallelBlocks(nblocks, 4, func(blk, _ int) {
			if blk == bad {
				panic("bad block")
			}
			ran.Add(1)
		})
		return nil
	}()
	if !errors.Is(err, ErrInternalPanic) {
		t.Fatalf("caller got %v, want ErrInternalPanic", err)
	}
	if got := ran.Load(); got != nblocks-1 {
		t.Fatalf("%d blocks ran, want %d", got, nblocks-1)
	}
}

// TestParallelSweepAllocCeiling fixes the allocations a sweep at Threads 2
// and 4 pays for its lanes on the bench-grid3d pattern (one fine-ND block,
// so a detached ND lane and its team of 2 or 4). Refactor and FactorInto
// make 4 + team size per call: the ND lane's closure, the team's join, its
// two lane closures and one goroutine closure per member. The ceilings are
// the values before the one launcher (6 and 10) where those leave no room
// for a second allocation per member, and one above the count otherwise:
// FactorInto at Threads 4 has read one more per call in some 10-call
// measurements (sync.Pool bookkeeping of team members moving between Ps,
// going by a memory profile).
func TestParallelSweepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are not asserted under -race")
	}
	a := matgen.Circuit(matgen.CircuitParams{N: 2700, Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: 120})
	steps := []*sparse.CSC{matgen.TransientStep(a, 1, 5), matgen.TransientStep(a, 2, 5)}
	for _, c := range []struct{ threads, ceiling int }{{2, 6}, {4, 9}} {
		opts := DefaultOptions()
		opts.Threads = c.threads
		num, err := FactorDirect(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if num.Sym.NumNDBlocks() != 1 {
			t.Fatalf("T%d: %d fine-ND blocks, want 1", c.threads, num.Sym.NumNDBlocks())
		}
		k := 0
		for _, op := range []struct {
			name string
			run  func(*sparse.CSC) error
		}{{"Refactor", num.Refactor}, {"FactorInto", num.FactorInto}} {
			call := func() {
				k++
				if err := op.run(steps[k%2]); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				call()
			}
			got := testing.AllocsPerRun(20, call)
			t.Logf("T%d %s: %.0f allocs per call", c.threads, op.name, got)
			if got > float64(c.ceiling) {
				t.Errorf("T%d %s: %.0f allocs per call, ceiling %d", c.threads, op.name, got, c.ceiling)
			}
		}
	}
}
