package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSC builds a random m×n matrix with roughly density*m*n entries.
func randomCSC(rng *rand.Rand, m, n int, density float64) *CSC {
	coo := NewCOO(m, n, int(density*float64(m*n))+1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSC(false)
}

func randomPerm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

func TestCOOToCSCSumsDuplicates(t *testing.T) {
	coo := NewCOO(3, 3, 4)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2)
	coo.Add(2, 1, 5)
	coo.Add(2, 1, -5)
	a := coo.ToCSC(false)
	if got := a.At(0, 0); got != 3 {
		t.Errorf("A(0,0) = %v, want 3", got)
	}
	if got := a.At(2, 1); got != 0 {
		t.Errorf("A(2,1) = %v, want 0 (kept entry)", got)
	}
	if a.Nnz() != 2 {
		t.Errorf("nnz = %d, want 2", a.Nnz())
	}
	b := coo.ToCSC(true)
	if b.Nnz() != 1 {
		t.Errorf("nnz with drop = %d, want 1", b.Nnz())
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := randomCSC(rng, 5+rng.Intn(30), 5+rng.Intn(30), 0.2)
		b := a.Transpose().Transpose()
		if err := b.Check(); err != nil {
			t.Fatal(err)
		}
		if !equalCSC(a, b) {
			t.Fatalf("transpose twice differs from original")
		}
	}
}

func TestTransposeEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSC(rng, 17, 11, 0.3)
	at := a.Transpose()
	for i := 0; i < a.M; i++ {
		for j := 0; j < a.N; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("A(%d,%d)=%v but Aᵀ(%d,%d)=%v", i, j, a.At(i, j), j, i, at.At(j, i))
			}
		}
	}
}

func equalCSC(a, b *CSC) bool {
	if a.M != b.M || a.N != b.N || a.Nnz() != b.Nnz() {
		return false
	}
	for j := 0; j <= a.N; j++ {
		if a.Colptr[j] != b.Colptr[j] {
			return false
		}
	}
	for p := 0; p < a.Nnz(); p++ {
		if a.Rowidx[p] != b.Rowidx[p] || a.Values[p] != b.Values[p] {
			return false
		}
	}
	return true
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(40)
		a := randomCSC(rng, n, n, 0.25)
		p := randomPerm(rng, n)
		q := randomPerm(rng, n)
		b := a.Permute(p, q)
		// Undo: A = B(pinv, qinv).
		c := b.Permute(InversePerm(p), InversePerm(q))
		if !equalCSC(a, c) {
			t.Fatalf("permute round trip failed at trial %d", trial)
		}
	}
}

func TestPermuteEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 12
	a := randomCSC(rng, n, n, 0.3)
	p := randomPerm(rng, n)
	q := randomPerm(rng, n)
	b := a.Permute(p, q)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if b.At(i, j) != a.At(p[i], q[j]) {
				t.Fatalf("B(%d,%d) != A(p[%d],q[%d])", i, j, i, j)
			}
		}
	}
}

func TestInverseComposePerm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		p := randomPerm(rng, n)
		pinv := InversePerm(p)
		if !IsPerm(p) || !IsPerm(pinv) {
			return false
		}
		for k := 0; k < n; k++ {
			if pinv[p[k]] != k {
				return false
			}
		}
		for k := 0; k < n; k++ {
			if p[pinv[k]] != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSC(rng, 13, 9, 0.4)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, a.M)
	a.MulVec(y, x)
	for i := 0; i < a.M; i++ {
		want := 0.0
		for j := 0; j < a.N; j++ {
			want += a.At(i, j) * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestExtractBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomCSC(rng, 20, 20, 0.3)
	b := a.ExtractBlock(5, 12, 3, 17)
	if b.M != 7 || b.N != 14 {
		t.Fatalf("block shape %d×%d, want 7×14", b.M, b.N)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.M; i++ {
		for j := 0; j < b.N; j++ {
			if b.At(i, j) != a.At(5+i, 3+j) {
				t.Fatalf("block(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestSymbolicUnionSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSC(rng, 25, 25, 0.15)
	u := a.SymbolicUnion()
	if err := u.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			has := u.At(i, j) != 0
			want := a.At(i, j) != 0 || a.At(j, i) != 0
			if has != want {
				t.Fatalf("union pattern (%d,%d): got %v want %v", i, j, has, want)
			}
			if (u.At(i, j) != 0) != (u.At(j, i) != 0) {
				t.Fatalf("union not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDropDiagonal(t *testing.T) {
	coo := NewCOO(3, 3, 5)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 2)
	coo.Add(2, 0, 3)
	coo.Add(0, 2, 4)
	a := coo.ToCSC(false).DropDiagonal()
	if a.Nnz() != 2 {
		t.Fatalf("nnz = %d, want 2", a.Nnz())
	}
	if a.At(0, 0) != 0 || a.At(1, 1) != 0 {
		t.Fatal("diagonal survived DropDiagonal")
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomCSC(rng, 10, 10, 0.5)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	bad := a.Clone()
	if bad.Nnz() > 1 {
		bad.Rowidx[0], bad.Rowidx[1] = bad.Rowidx[1], bad.Rowidx[0]
		// After the swap column 0 is either unsorted or has a duplicate.
		if err := bad.Check(); err == nil && bad.Colptr[1] >= 2 {
			t.Fatal("Check accepted unsorted column")
		}
	}
	bad2 := a.Clone()
	bad2.Rowidx[0] = 99
	if err := bad2.Check(); err == nil {
		t.Fatal("Check accepted out-of-range row index")
	}
}

// TestCheckMalformedShapes pins that Check rejects, without panicking, the
// shapes whose lengths or pointers cannot be trusted as indices.
func TestCheckMalformedShapes(t *testing.T) {
	cases := []struct {
		name string
		a    CSC
	}{
		{"interior pointer past nnz", CSC{M: 2, N: 2, Colptr: []int{0, 5, 2}, Rowidx: []int{0, 1}, Values: []float64{1, 2}}},
		{"negative interior pointer", CSC{M: 2, N: 2, Colptr: []int{0, -1, 2}, Rowidx: []int{0, 1}, Values: []float64{1, 2}}},
		{"negative N, nil Colptr", CSC{M: -1, N: -1}},
		{"negative M", CSC{M: -1, N: 0, Colptr: []int{0}}},
		{"Colptr too short", CSC{M: 2, N: 2, Colptr: []int{0, 1}, Rowidx: []int{0}, Values: []float64{1}}},
		{"nonzero Colptr[0]", CSC{M: 2, N: 1, Colptr: []int{1, 1}, Rowidx: []int{0}, Values: []float64{1}}},
		{"Colptr[N] short of Rowidx", CSC{M: 2, N: 1, Colptr: []int{0, 1}, Rowidx: []int{0, 1}, Values: []float64{1, 2}}},
		{"Values shorter than Rowidx", CSC{M: 2, N: 1, Colptr: []int{0, 2}, Rowidx: []int{0, 1}, Values: []float64{1}}},
		{"row out of range", CSC{M: 2, N: 1, Colptr: []int{0, 1}, Rowidx: []int{2}, Values: []float64{1}}},
		{"unsorted rows", CSC{M: 2, N: 1, Colptr: []int{0, 2}, Rowidx: []int{1, 0}, Values: []float64{1, 2}}},
	}
	for _, c := range cases {
		if err := c.a.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", c.name, c.a)
		}
	}
}

// checkOracle is an invariant check written independently of Check: it
// walks the stored positions in order, assigns each to the column whose
// pointer range holds it, and requires the (column, row) sequence to be
// strictly increasing in column-major order.
func checkOracle(a *CSC) string {
	if a.M < 0 || a.N < 0 {
		return "negative dimension"
	}
	if len(a.Colptr) != a.N+1 {
		return "Colptr length"
	}
	nnz := len(a.Rowidx)
	if len(a.Values) != nnz || a.Colptr[0] != 0 || a.Colptr[a.N] != nnz {
		return "Colptr ends or Values length"
	}
	for k := 0; k < a.N; k++ {
		if a.Colptr[k] > a.Colptr[k+1] {
			return "Colptr not monotone"
		}
	}
	j := 0
	for p := 0; p < nnz; p++ {
		for a.Colptr[j+1] <= p {
			j++
			if j == a.N {
				return "position past the last column"
			}
		}
		if i := a.Rowidx[p]; i < 0 || i >= a.M {
			return "row out of range"
		}
		if p > a.Colptr[j] && a.Rowidx[p-1] >= a.Rowidx[p] {
			return "rows not strictly increasing"
		}
	}
	return ""
}

// FuzzCSCCheck feeds Check arbitrary shapes — negative dimensions, short or
// long Colptr, pointers past either end, any row indices — and requires it
// never to panic, to agree with checkOracle, and, when it accepts, that the
// matrix survives a transpose round trip bit for bit.
func FuzzCSCCheck(f *testing.F) {
	f.Add(3, 3, []byte{0, 2, 3, 4}, []byte{0, 2, 1, 2}, 4)
	f.Add(2, 2, []byte{0, 5, 2}, []byte{0, 1}, 2)
	f.Add(-1, -1, []byte{}, []byte{}, 0)
	f.Add(2, 3, []byte{0, 0, 0, 0}, []byte{}, 0)
	f.Add(4, 1, []byte{0, 3}, []byte{3, 1, 2}, 3)
	f.Fuzz(func(t *testing.T, m, n int, colptr, rowidx []byte, nval int) {
		if n > 64 || m > 64 || nval < 0 || nval > 64 {
			return
		}
		a := &CSC{M: m, N: n}
		for _, b := range colptr {
			a.Colptr = append(a.Colptr, int(int8(b)))
		}
		for _, b := range rowidx {
			a.Rowidx = append(a.Rowidx, int(int8(b)))
		}
		for k := 0; k < nval; k++ {
			a.Values = append(a.Values, float64(k+1))
		}
		err := a.Check()
		if want := checkOracle(a); (err == nil) != (want == "") {
			t.Fatalf("Check = %v, oracle = %q on %+v", err, want, a)
		}
		if err != nil {
			return
		}
		b := a.Transpose().Transpose()
		if err := b.Check(); err != nil || !equalCSC(a, b) {
			t.Fatalf("accepted matrix fails the transpose round trip (%v): %+v", err, a)
		}
	})
}

func TestMaxAbs(t *testing.T) {
	coo := NewCOO(2, 2, 3)
	coo.Add(0, 0, -7)
	coo.Add(1, 1, 3)
	a := coo.ToCSC(false)
	if a.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v, want 7", a.MaxAbs())
	}
}

func TestPermuteWithMapMatchesPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		a := randomCSC(rng, n, n, 0.2)
		p := randomPerm(rng, n)
		q := randomPerm(rng, n)
		want := a.Permute(p, q)
		got, src := a.PermuteWithMap(p, q)
		if err := got.Check(); err != nil {
			t.Fatal(err)
		}
		if len(src) != got.Nnz() {
			t.Fatalf("map length %d, nnz %d", len(src), got.Nnz())
		}
		for j := 0; j <= n; j++ {
			if got.Colptr[j] != want.Colptr[j] {
				t.Fatalf("colptr mismatch at %d", j)
			}
		}
		for k := range want.Rowidx {
			if got.Rowidx[k] != want.Rowidx[k] || got.Values[k] != want.Values[k] {
				t.Fatalf("entry %d: got (%d,%v) want (%d,%v)",
					k, got.Rowidx[k], got.Values[k], want.Rowidx[k], want.Values[k])
			}
		}
		// The map must reproduce a permute of fresh values as a pure gather.
		a2 := a.Clone()
		for i := range a2.Values {
			a2.Values[i] = rng.NormFloat64()
		}
		PermuteInto(got, a2, src)
		want2 := a2.Permute(p, q)
		for k := range want2.Values {
			if got.Values[k] != want2.Values[k] {
				t.Fatalf("gathered value %d: got %v want %v", k, got.Values[k], want2.Values[k])
			}
		}
	}
}

func TestExtractBlockWithMapMatchesExtractBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		m := 4 + rng.Intn(30)
		n := 4 + rng.Intn(30)
		a := randomCSC(rng, m, n, 0.25)
		r0 := rng.Intn(m / 2)
		r1 := r0 + 1 + rng.Intn(m-r0-1)
		c0 := rng.Intn(n / 2)
		c1 := c0 + 1 + rng.Intn(n-c0-1)
		want := a.ExtractBlock(r0, r1, c0, c1)
		got, src := a.ExtractBlockWithMap(r0, r1, c0, c1)
		if len(src) != got.Nnz() {
			t.Fatalf("map length %d, nnz %d", len(src), got.Nnz())
		}
		for j := 0; j <= got.N; j++ {
			if got.Colptr[j] != want.Colptr[j] {
				t.Fatalf("colptr mismatch at %d", j)
			}
		}
		for k := range want.Rowidx {
			if got.Rowidx[k] != want.Rowidx[k] || got.Values[k] != want.Values[k] {
				t.Fatalf("entry %d mismatch", k)
			}
		}
		a2 := a.Clone()
		for i := range a2.Values {
			a2.Values[i] = rng.NormFloat64()
		}
		ExtractBlockInto(got, a2, src)
		want2 := a2.ExtractBlock(r0, r1, c0, c1)
		for k := range want2.Values {
			if got.Values[k] != want2.Values[k] {
				t.Fatalf("gathered value %d: got %v want %v", k, got.Values[k], want2.Values[k])
			}
		}
	}
}

func TestSharePatternResetCompact(t *testing.T) {
	coo := NewCOO(4, 4, 8)
	coo.Add(0, 0, 1)
	coo.Add(2, 0, 3)
	coo.Add(1, 1, 2)
	coo.Add(3, 2, 4)
	coo.Add(0, 3, 5)
	a := coo.ToCSC(false)

	// SharePattern aliases structure, owns zero values.
	b := a.SharePattern()
	if &b.Colptr[0] != &a.Colptr[0] || &b.Rowidx[0] != &a.Rowidx[0] {
		t.Fatal("SharePattern must alias the index slices")
	}
	for _, v := range b.Values {
		if v != 0 {
			t.Fatal("SharePattern values must start zero")
		}
	}
	b.Values[0] = 9
	if a.Values[0] == 9 {
		t.Fatal("SharePattern values must be private")
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}

	// ResetShape keeps capacity, zeroes the structure.
	c := NewCSC(4, 4, 16)
	c.Rowidx = append(c.Rowidx, 1, 2)
	c.Values = append(c.Values, 1, 2)
	c.Colptr[4] = 2
	capBefore := cap(c.Rowidx)
	c.ResetShape(3, 3)
	if c.M != 3 || c.N != 3 || c.Nnz() != 0 || len(c.Colptr) != 4 {
		t.Fatalf("ResetShape left %d×%d nnz=%d", c.M, c.N, c.Nnz())
	}
	if cap(c.Rowidx) != capBefore {
		t.Fatal("ResetShape must keep capacity")
	}

	// Compact clips capacity to length.
	d := NewCSC(4, 4, 64)
	d.Rowidx = append(d.Rowidx, 0, 1)
	d.Values = append(d.Values, 1, 2)
	d.Colptr[1], d.Colptr[2], d.Colptr[3], d.Colptr[4] = 2, 2, 2, 2
	d.Compact()
	if cap(d.Rowidx) != 2 || cap(d.Values) != 2 {
		t.Fatalf("Compact left capacity %d/%d", cap(d.Rowidx), cap(d.Values))
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}
