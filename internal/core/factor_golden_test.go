package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/klu"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

const factorGoldenPath = "testdata/factor_golden.json"

// factorHash is an FNV-64a over the IEEE bits of every stored L and U value
// of a numeric, block by block: a single flipped bit anywhere in the
// factors, the sign of a zero included, changes it.
func factorHash(num *Numeric) string {
	h := fnv.New64a()
	var b [8]byte
	vals := func(c *sparse.CSC) {
		if c == nil {
			return
		}
		for _, v := range c.Values[:c.Colptr[c.N]] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for blk := 0; blk < num.Sym.NumBlocks(); blk++ {
		switch num.Sym.kind[blk] {
		case blockSmall:
			vals(num.small[blk].L)
			vals(num.small[blk].U)
		case blockND:
			ndn := num.nd[blk]
			for _, f := range ndn.diag {
				if f != nil {
					vals(f.L)
					vals(f.U)
				}
			}
			for i := range ndn.lower {
				for j := range ndn.lower[i] {
					vals(ndn.lower[i][j])
					vals(ndn.upper[i][j])
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// factorGoldenInputs are the matrices the factor golden file covers: the
// Table I suite at quarter scale plus the xyce and grid3d benchmark
// patterns at full size.
func factorGoldenInputs() map[string]*sparse.CSC {
	out := map[string]*sparse.CSC{}
	for _, m := range matgen.TableISuite(0.25) {
		out["tableI@0.25/"+m.Name] = m.Gen()
	}
	out["bench-xyce"] = matgen.Circuit(matgen.CircuitParams{N: 30000, BTFPct: 21, Blocks: 1000, Core: matgen.CoreLadder, ExtraDensity: 0.4, Seed: 111})
	out["bench-grid3d"] = matgen.Circuit(matgen.CircuitParams{N: 2700, Core: matgen.CoreGrid3D, ExtraDensity: 0.2, Seed: 120})
	return out
}

// factorDigests runs one numeric through every factor entry point — a
// fresh Factor, a full Refactor on a transient restamp, a RefactorPartial
// over a clustered change set and a partial Refactor, which finds its own
// change, over a scattered one — and digests the factors after each. The
// last digest keeps the key "RefactorAuto", the name the entry point had
// when the golden file was recorded.
func factorDigests(t *testing.T, a *sparse.CSC, threads int) map[string]string {
	t.Helper()
	opts := DefaultOptions()
	opts.Threads = threads
	sym, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	num, err := Factor(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	g := map[string]string{"Factor": factorHash(num)}
	m1 := matgen.TransientStep(a, 1, 5)
	if err := num.Refactor(m1); err != nil {
		t.Fatal(err)
	}
	g["Refactor"] = factorHash(num)
	cols2 := matgen.ChangeSet(a.N, 0.05, 7, true)
	m2 := matgen.PerturbColumns(m1, cols2, 2, 9)
	if err := num.RefactorPartial(m2, cols2); err != nil {
		t.Fatal(err)
	}
	g["RefactorPartial"] = factorHash(num)
	// A Refactor of the values already held reworks nothing; the next one
	// refreshes by its bitwise diff against permuted storage.
	if err := num.Refactor(m2); err != nil {
		t.Fatal(err)
	}
	m3 := matgen.PerturbColumns(m2, matgen.ChangeSet(a.N, 0.05, 8, false), 3, 11)
	if err := num.Refactor(m3); err != nil {
		t.Fatal(err)
	}
	g["RefactorAuto"] = factorHash(num)
	return g
}

// TestFactorGolden pins the bits of every block's L and U after Factor, a
// full Refactor, RefactorPartial and a partial Refactor, serially and at four
// threads, against testdata/factor_golden.json. A kernel rewrite or a
// scheduler change must not move a single bit; a deliberate change of the
// factor arithmetic re-records the file with -update-golden.
func TestFactorGolden(t *testing.T) {
	got := map[string]map[string]string{}
	for name, a := range factorGoldenInputs() {
		for _, threads := range []int{1, 4} {
			got[fmt.Sprintf("%s/T%d", name, threads)] = factorDigests(t, a, threads)
		}
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(factorGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(factorGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the factorizations produced %d", len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d fields, golden %d", name, len(g), len(w))
		}
		for field, wh := range w {
			if g[field] != wh {
				t.Errorf("%s: %s = %s, golden %s", name, field, g[field], wh)
			}
		}
	}
}

// TestFactorRefactorBitwise pins the one arithmetic of fresh and refreshed
// factors: a full refresh on the exact values Factor saw leaves every bit of
// every block's L and U — diagonals and ND couplings alike — as Factor
// wrote it. It runs over the golden inputs at one, two and four threads,
// with the default layouts and with supernodes or the dense kernels
// switched off. A RefactorPartial that lists every column falls through to
// the full sweep, which refreshes every block whatever changed. KLU's
// Refactor after its Factor is pinned the same way.
func TestFactorRefactorBitwise(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"defaults", func(*Options) {}},
		{"NoSupernodes", func(o *Options) { o.NoSupernodes = true }},
		{"NoDenseKernels", func(o *Options) { o.NoDenseKernels = true }},
	}
	for name, a := range factorGoldenInputs() {
		all := make([]int, a.N)
		for j := range all {
			all[j] = j
		}
		for _, threads := range []int{1, 2, 4} {
			for _, v := range variants {
				opts := DefaultOptions()
				opts.Threads = threads
				v.set(&opts)
				num, err := FactorDirect(a, opts)
				if err != nil {
					t.Fatalf("%s/T%d/%s: %v", name, threads, v.name, err)
				}
				want := factorHash(num)
				if err := num.RefactorPartial(a, all); err != nil {
					t.Fatalf("%s/T%d/%s: %v", name, threads, v.name, err)
				}
				if got := factorHash(num); got != want {
					t.Errorf("%s/T%d/%s: refresh on Factor's values moved the factor bits: %s, Factor %s", name, threads, v.name, got, want)
				}
			}
		}
		kn, err := klu.FactorDirect(a, klu.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: klu: %v", name, err)
		}
		want := kluHash(kn)
		if err := kn.Refactor(a); err != nil {
			t.Fatalf("%s: klu refactor: %v", name, err)
		}
		if got := kluHash(kn); got != want {
			t.Errorf("%s: klu.Refactor on Factor's values moved the factor bits: %s, Factor %s", name, got, want)
		}
	}
}

// kluHash is factorHash for a KLU numeric: the bits of every block's L and U.
func kluHash(num *klu.Numeric) string {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range num.Blocks {
		for _, c := range []*sparse.CSC{f.L, f.U} {
			for _, v := range c.Values[:c.Colptr[c.N]] {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
