package gp

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/etree"
	"repro/internal/sparse"
)

// checkFactorInvariants checks the structure a fresh factorization
// promises, values aside: sorted, well-formed L and U with the unit
// diagonal first and the pivot last (checkTriangular); P and Pinv inverse
// permutations; every prune boundary inside its column and, where it cuts
// the column, right after the pruning pivot's row k, with U(j,k) stored;
// and one shared ascending below-row sequence across the columns of every
// wide supernode, after its padded in-supernode rows.
func checkFactorInvariants(t *testing.T, f *Factors) {
	t.Helper()
	checkTriangular(t, f)
	n := f.N
	if len(f.P) != n || len(f.Pinv) != n || !sparse.IsPerm(f.P) {
		t.Fatalf("P is not a permutation of 0..%d", n-1)
	}
	for k, r := range f.P {
		if f.Pinv[r] != k {
			t.Fatalf("Pinv[P[%d]] = %d", k, f.Pinv[r])
		}
	}
	lp, li := f.L.Colptr, f.L.Rowidx
	if f.PruneEnd != nil {
		for j, pe := range f.PruneEnd {
			if pe < lp[j]+1 || pe > lp[j+1] {
				t.Fatalf("PruneEnd[%d] = %d outside column %d..%d", j, pe, lp[j]+1, lp[j+1])
			}
			if pe == lp[j+1] {
				continue // unpruned, or pruned past every row
			}
			if pe == lp[j]+1 {
				t.Fatalf("column %d pruned to its diagonal with rows left", j)
			}
			k := li[pe-1]
			up0, up1 := f.U.Colptr[k], f.U.Colptr[k+1]
			if _, found := slices.BinarySearch(f.U.Rowidx[up0:up1], j); !found {
				t.Fatalf("column %d pruned at row %d, but U(%d,%d) is not stored", j, k, j, k)
			}
		}
	}
	for s := 0; s+1 < len(f.Snodes); s++ {
		k0, k1 := f.Snodes[s], f.Snodes[s+1]
		var below []int
		for k := k0; k < k1; k++ {
			rows := li[lp[k]:lp[k+1]]
			if len(rows) < k1-k {
				t.Fatalf("supernode %d..%d: column %d holds %d rows", k0, k1-1, k, len(rows))
			}
			for d, r := range rows[:k1-k] {
				if r != k+d {
					t.Fatalf("supernode %d..%d: column %d row %d is %d, want the padded %d", k0, k1-1, k, d, r, k+d)
				}
			}
			if k == k0 {
				below = rows[k1-k:]
			} else if !slices.Equal(rows[k1-k:], below) {
				t.Fatalf("supernode %d..%d: column %d's below rows differ from column %d's", k0, k1-1, k, k0)
			}
		}
	}
}

// TestFactorInvariantsAllLayouts runs checkFactorInvariants over every
// fresh layout — column at a time, pruned or not, supernodal and
// dense-built — on seeded random matrices of several densities.
func TestFactorInvariantsAllLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 7, 60, 150} {
		for _, density := range []float64{0.02, 0.1, 0.4} {
			a := randNonsingular(rng, n, density)
			xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 4, 16)
			ws := NewWorkspace(n)
			for _, opts := range []Options{{}, {NoPrune: true}} {
				for _, part := range [][]int{nil, xsup} {
					var f Factors
					if err := FactorInto(&f, a, part, 0, opts, ws); err != nil {
						t.Fatal(err)
					}
					checkFactorInvariants(t, &f)
				}
				var d Factors
				if err := FactorDenseInto(&d, a, opts, ws); err != nil {
					t.Fatal(err)
				}
				checkFactorInvariants(t, &d)
			}
		}
	}
}

// span is the address range of s's backing array.
func span[T any](s []T) (lo, hi uintptr) {
	if cap(s) == 0 {
		return 0, 0
	}
	var z T
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return lo, lo + uintptr(cap(s))*unsafe.Sizeof(z)
}

// TestEmitScratchNotRetained pins that a fresh factor keeps no reference
// into the emission scratch it was built in: after FactorInto's body runs
// over a test-owned scratch, no slice of the factors or of the workspace
// shares a backing array with it, and the factors' entry slices have
// cap == len — also when the destination was recycled from a larger one.
func TestEmitScratchNotRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randNonsingular(rng, 120, 0.08)
	big := randNonsingular(rng, 120, 0.3)
	xsup := etree.RelaxedSupernodes(etree.ColEtree(a), nil, 4, 16)
	ws := NewWorkspace(a.N)
	var sc emitScratch
	var f Factors
	// a into nothing and big into a's storage allocate exact-length
	// slices; a again reuses big's.
	for i, m := range []*sparse.CSC{a, big, a} {
		if err := f.factorVia(&sc, m, xsup, 0, Options{}, ws); err != nil {
			t.Fatal(err)
		}
		checkFactorInvariants(t, &f)
		scratch := [][2]uintptr{pair(span(sc.ptr)), pair(span(sc.ent))}
		for _, c := range []*sparse.CSC{&sc.l, &sc.u} {
			scratch = append(scratch, pair(span(c.Colptr)), pair(span(c.Rowidx)), pair(span(c.Values)))
		}
		kept := [][2]uintptr{
			pair(span(f.P)), pair(span(f.Pinv)), pair(span(f.PruneEnd)), pair(span(f.Snodes)),
			pair(span(ws.X)), pair(span(ws.Xi)), pair(span(ws.Pstack)), pair(span(ws.Mark)), pair(span(ws.lpend)),
		}
		for _, c := range []*sparse.CSC{f.L, f.U} {
			if c == &sc.l || c == &sc.u {
				t.Fatal("a factor is the scratch matrix itself")
			}
			kept = append(kept, pair(span(c.Colptr)), pair(span(c.Rowidx)), pair(span(c.Values)))
			if i < 2 && (cap(c.Rowidx) != len(c.Rowidx) || cap(c.Values) != len(c.Values)) {
				t.Fatalf("a grown factor keeps slack: %d/%d", len(c.Rowidx), cap(c.Rowidx))
			}
		}
		for _, k := range kept {
			for _, s := range scratch {
				if k[0] < s[1] && s[0] < k[1] {
					t.Fatal("a retained slice shares its backing array with the emission scratch")
				}
			}
		}
	}
}

func pair(lo, hi uintptr) [2]uintptr { return [2]uintptr{lo, hi} }

// TestEmitScratchIdleLifetime pins the two halves of the idle list's
// contract: a returned scratch is handed out again even when emitKeep has
// lost it, as a race build's pool does with a quarter of its Puts; and an
// idle scratch is freed by two collections without use, so nothing keeps
// factor-sized scratch alive between factorizations.
func TestEmitScratchIdleLifetime(t *testing.T) {
	idle := func() weak.Pointer[emitScratch] {
		sc := getEmitScratch()
		putEmitScratch(sc)
		for emitKeep.Get() != nil { // every strong reference dropped
		}
		if got := getEmitScratch(); got != sc {
			t.Fatal("the idle scratch was not handed out again")
		}
		putEmitScratch(sc)
		return weak.Make(sc)
	}()
	runtime.GC()
	runtime.GC()
	if idle.Value() != nil {
		t.Fatal("an idle scratch outlived two collections")
	}
}
