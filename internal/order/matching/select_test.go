package matching_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matgen"
	"repro/internal/order/btf"
	"repro/internal/order/matching"
	"repro/internal/sparse"
)

// coldClasses are the cold_factor benchmark's seven classes: the paper's
// Fig. 5 matrices plus Xyce1.
func coldClasses() []matgen.Named {
	cold := matgen.Fig5Subset(1)
	for _, g := range matgen.TableISuite(1) {
		if g.Name == "Xyce1" {
			cold = append(cold, g)
		}
	}
	return cold
}

// bottleneckInputs returns the differential table: the Table I suite, the
// seven cold-factor classes with one transient step's values, and every
// block of those that Analyze would hand to the fine-ND matching (a BTF
// block of at least max(128, n/4) rows).
func bottleneckInputs(t *testing.T) map[string]*sparse.CSC {
	in := map[string]*sparse.CSC{}
	for _, g := range matgen.TableISuite(1) {
		in[g.Name] = g.Gen()
	}
	for ci, g := range coldClasses() {
		a := matgen.TransientStep(g.Gen(), 1, 1+int64(ci))
		in["cold/"+g.Name] = a
		form, err := btf.Compute(a, true)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		b := a.Permute(form.RowPerm, form.ColPerm)
		minND := max(128, a.N/4)
		for k := 0; k < form.NumBlocks(); k++ {
			r0, r1 := form.BlockPtr[k], form.BlockPtr[k+1]
			if r1-r0 >= minND {
				in[fmt.Sprintf("cold/%s/nd%d", g.Name, k)] = b.ExtractBlock(r0, r1, r0, r1)
			}
		}
	}
	return in
}

func TestBottleneckMatchesSortReference(t *testing.T) {
	ws := matching.NewWorkspace()
	in := bottleneckInputs(t)
	names := make([]string, 0, len(in))
	for name := range in {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if diff := matching.SameAsReference(in[name], ws); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
	if len(names) < 20 {
		t.Fatalf("only %d inputs", len(names))
	}
}

// TestBottleneckAllocs pins the search's scratch to the workspace: once ws
// is warm, the returned Result and its RowPerm are the only allocations.
func TestBottleneckAllocs(t *testing.T) {
	var a *sparse.CSC
	for _, g := range matgen.TableISuite(0.25) {
		if g.Name == "Xyce1" {
			a = matgen.TransientStep(g.Gen(), 1, 7)
		}
	}
	ws := matching.NewWorkspace()
	if _, err := matching.BottleneckWith(a, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := matching.BottleneckWith(a, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("BottleneckWith with a warm workspace: %v allocs/op, want 2 (Result and RowPerm)", allocs)
	}
}

// TestBottleneckRandomValues runs the differential check on random patterns
// whose magnitudes are drawn from a short list, so most thresholds repeat.
func TestBottleneckRandomValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := matching.NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		coo := sparse.NewCOO(n, n, 4*n)
		for k := 0; k < 3*n; k++ {
			coo.Add(rng.Intn(n), rng.Intn(n), float64(rng.Intn(7)-3))
		}
		for j, i := range rng.Perm(n)[:n-rng.Intn(2)] {
			coo.Add(i, j, float64(1+rng.Intn(4)))
		}
		if diff := matching.SameAsReference(coo.ToCSC(false), ws); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

// BenchmarkBottleneck times the selection search against the sort-based
// reference on the seven cold-factor classes, warm workspace.
func BenchmarkBottleneck(b *testing.B) {
	for ci, g := range coldClasses() {
		a := matgen.TransientStep(g.Gen(), 1, 1+int64(ci))
		for _, s := range []struct {
			name string
			f    func(*sparse.CSC, *matching.Workspace) (*matching.Result, error)
		}{{"select", matching.BottleneckWith}, {"sort", matching.BottleneckReference}} {
			b.Run(g.Name+"/"+s.name, func(b *testing.B) {
				ws := matching.NewWorkspace()
				for i := 0; i < b.N; i++ {
					if _, err := s.f(a, ws); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
