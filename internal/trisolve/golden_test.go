package trisolve

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/solve_golden.json from the current solves")

const goldenPath = "testdata/solve_golden.json"

// hashVecs is an FNV-64a over the IEEE bits of every component of vs, so a
// single flipped bit, the sign of a zero included, changes it.
func hashVecs(vs ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRHS returns the k right-hand sides every golden case solves: dense
// vectors, one all-zero vector, and a tail that is zero on the leading 70 %
// of the rows, so the zero skips of every sweep run.
func goldenRHS(n, k int) [][]float64 {
	bs := make([][]float64, k)
	for c := range bs {
		bs[c] = randRHS(n, int64(c))
		if c >= 24 {
			clear(bs[c][:n*7/10])
		}
	}
	clear(bs[1])
	return bs
}

// solveDigests solves the golden right-hand sides through every entry
// point and digests each result.
func solveDigests(t *testing.T, num *core.Numeric) map[string]string {
	t.Helper()
	const k = 33
	rhs := goldenRHS(num.Sym.N, k)
	serial := New(num, Options{Workers: 1})
	g := map[string]string{}
	xs := cloneVecs(rhs)
	for _, x := range xs {
		if err := serial.Solve(x); err != nil {
			t.Fatal(err)
		}
	}
	g["Solve"] = hashVecs(xs...)
	for _, kk := range []int{2, 8, 9, k} {
		xs := cloneVecs(rhs[:kk])
		if err := serial.SolveMany(xs); err != nil {
			t.Fatal(err)
		}
		g[fmt.Sprintf("SolveMany/k=%d", kk)] = hashVecs(xs...)
	}
	x := slices.Concat(rhs...)
	if err := serial.SolveMatrix(x, k); err != nil {
		t.Fatal(err)
	}
	g["SolveMatrix"] = hashVecs(x)
	return g
}

// TestSolveGolden pins every solve entry point to the bits recorded in
// testdata/solve_golden.json: the ten panel classes plus the Table I suite
// at quarter scale, factored serially and by four threads. A change to the
// solve's data layout must not move a single bit of any solution; a
// deliberate change of the arithmetic re-records the file with
// -update-golden.
func TestSolveGolden(t *testing.T) {
	type input struct {
		name string
		a    *sparse.CSC
		opts core.Options
	}
	var inputs []input
	for _, m := range panelMatrices() {
		opts := core.DefaultOptions()
		opts.BigBlockMin = 32
		inputs = append(inputs, input{"panel/" + m.name, m.a, opts})
	}
	for _, m := range matgen.TableISuite(0.25) {
		inputs = append(inputs, input{"tableI@0.25/" + m.Name, m.Gen(), core.DefaultOptions()})
	}
	got := map[string]map[string]string{}
	for _, in := range inputs {
		for _, threads := range []int{1, 4} {
			opts := in.opts
			opts.Threads = threads
			num, err := core.FactorDirect(in.a, opts)
			if err != nil {
				t.Fatalf("%s T=%d: %v", in.name, threads, err)
			}
			got[fmt.Sprintf("%s/T%d", in.name, threads)] = solveDigests(t, num)
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
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the solves produced %d", len(want), len(got))
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
