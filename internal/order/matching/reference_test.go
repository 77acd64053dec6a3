package matching

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sparse"
)

// BottleneckReference exports the reference search to the external tests.
var BottleneckReference = bottleneckReference

// bottleneckReference is the sort-based search BottleneckWith replaced: sort
// every entry magnitude, drop duplicates, and binary search the sorted list
// for the last threshold at which the filtered MC21 still finds a perfect
// matching. It is kept verbatim as the oracle of the selection search.
func bottleneckReference(a *sparse.CSC, ws *Workspace) (*Result, error) {
	if a.M != a.N {
		return nil, errors.New("matching: matrix must be square")
	}
	n := a.N
	if n == 0 {
		return &Result{RowPerm: []int{}}, nil
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	mags := ws.mags[:0]
	for _, v := range a.Values[:a.Nnz()] {
		mags = append(mags, math.Abs(v))
	}
	sort.Float64s(mags)
	mags = dedupSorted(mags)
	ws.mags = mags

	rowOf, size := maxCardinalityFiltered(a, 0, ws)
	if size != n {
		return nil, ErrStructurallySingular
	}
	ws.best = append(ws.best[:0], rowOf...)
	bestThresh := 0.0
	lo, hi := 0, len(mags)-1 // mags[lo] is always feasible once set
	for lo <= hi {
		mid := (lo + hi) / 2
		r, s := maxCardinalityFiltered(a, mags[mid], ws)
		if s == n {
			ws.best = append(ws.best[:0], r...)
			bestThresh = mags[mid]
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return &Result{RowPerm: append([]int(nil), ws.best...), Bottleneck: bestThresh}, nil
}

func dedupSorted(x []float64) []float64 {
	out := x[:0]
	for i, v := range x {
		if i == 0 || v != x[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// SameAsReference reports how BottleneckWith on a, with the warm workspace
// ws, differs from the reference: the permutation, the bottleneck's bits
// (any NaN equals any NaN) and the error must all agree. "" means equal.
func SameAsReference(a *sparse.CSC, ws *Workspace) string {
	want, werr := bottleneckReference(a, nil)
	got, gerr := BottleneckWith(a, ws)
	switch {
	case errString(gerr) != errString(werr):
		return "error " + errString(gerr) + ", reference " + errString(werr)
	case werr != nil:
		return ""
	case len(got.RowPerm) != len(want.RowPerm):
		return "RowPerm length differs"
	}
	for k := range want.RowPerm {
		if got.RowPerm[k] != want.RowPerm[k] {
			return "RowPerm differs"
		}
	}
	g, w := got.Bottleneck, want.Bottleneck
	if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
		return "Bottleneck differs"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// fuzzPalette holds the magnitudes that stress the search's bounds: both
// zeros, both infinities, NaN, subnormals, the extremes of the normal range
// and small integers that repeat across entries.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 2, -2, 3, 0.5,
}

// fuzzMatrix decodes data into a square CSC: the first byte sizes it, then
// one byte per position chooses absent (a third of the codes) or a palette
// value. Missing bytes read as absent, so short inputs give structurally
// singular patterns.
func fuzzMatrix(data []byte) *sparse.CSC {
	if len(data) == 0 {
		return sparse.NewCSC(0, 0, 0)
	}
	n := int(data[0] % 13)
	data = data[1:]
	a := &sparse.CSC{M: n, N: n, Colptr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			k := j*n + i
			if k >= len(data) || data[k]%3 == 0 {
				continue
			}
			a.Rowidx = append(a.Rowidx, i)
			a.Values = append(a.Values, fuzzPalette[int(data[k]/3)%len(fuzzPalette)])
		}
		a.Colptr[j+1] = len(a.Rowidx)
	}
	return a
}

func FuzzBottleneck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1})
	f.Add([]byte{2, 1, 2, 4, 5})
	f.Add([]byte{3, 13, 0, 0, 0, 13, 0, 0, 0, 13})                 // all NaN diagonal
	f.Add([]byte{3, 1, 4, 7, 10, 13, 16, 19, 22, 25})              // dense, zeros to NaN
	f.Add([]byte{4, 31, 0, 0, 35, 0, 34, 35, 0, 0, 35, 34, 0, 35}) // repeated magnitudes
	f.Add([]byte{3, 7, 7, 0, 7, 0, 0, 0, 0, 0})                    // singular: an empty column
	f.Add([]byte{12, 2, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38, 41, 44, 47})
	ws := NewWorkspace() // one workspace across inputs: stale scratch must not leak
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzMatrix(data)
		if diff := SameAsReference(a, ws); diff != "" {
			t.Fatalf("n=%d values=%v: %s", a.N, a.Values, diff)
		}
	})
}

func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		x := make([]float64, 1+rng.Intn(40))
		for i := range x {
			x[i] = float64(rng.Intn(1 + trial%9)) // from all-equal to mostly distinct
		}
		want := append([]float64(nil), x...)
		sort.Float64s(want)
		k := rng.Intn(len(x))
		selectKth(x, k)
		if x[k] != want[k] {
			t.Fatalf("trial %d: x[%d] = %v, sorted has %v", trial, k, x[k], want[k])
		}
		for i, v := range x {
			if (i < k && v > x[k]) || (i > k && v < x[k]) {
				t.Fatalf("trial %d: x[%d] = %v on the wrong side of x[%d] = %v", trial, i, v, k, x[k])
			}
		}
	}
}
