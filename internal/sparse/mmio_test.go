package sparse

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSC(rng, 15, 12, 0.3)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCSC(a, b) {
		t.Fatal("MatrixMarket round trip altered the matrix")
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
3 2 4.0
3 3 1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Nnz() != 6 {
		t.Fatalf("nnz = %d, want 6 after symmetric expansion", a.Nnz())
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric expansion missing mirrored entry")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("pattern entries should read as 1")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",
	}
	cases = append(cases, mmBadInputs...)
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d %q: expected error, got nil", i, in)
		}
	}
}

// mmBadInputs are streams that used to panic, exhaust memory or read as a
// silent 0×0 matrix; each must now be an error.
var mmBadInputs = []string{
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",              // row past m
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1.0\n",              // column past n
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",              // row index 0
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 -1 1.0\n",             // negative column
	"%%MatrixMarket matrix coordinate real general\n2 2 -1\n",                      // negative count
	"%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1.0\n",             // negative rows
	"%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n",              // count above m·n
	"%%MatrixMarket matrix coordinate real general\n2 2 999999999999\n",            // count that would exhaust memory
	"%%MatrixMarket matrix coordinate real general\n99999999999 1 0\n",             // dimension above the cap
	"%%MatrixMarket matrix coordinate real general\n% only a comment\n",            // no size line
	"%%MatrixMarket matrix coordinate real general\n",                              // no size line
	"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",            // non-square symmetric
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n",              // NaN value
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 -Inf\n",             // infinite value
	"%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1e308\n1 1 1e308\n", // duplicates sum to +Inf
}

func TestMatrixMarketEmptyShapes(t *testing.T) {
	for _, in := range []string{
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n3 0 0\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 0\n",
	} {
		a, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		err = a.Check()
		if err == nil {
			err = a.CheckFinite()
		}
		if err != nil || a.Nnz() != 0 {
			t.Fatalf("%q: nnz=%d, Check/CheckFinite: %v", in, a.Nnz(), err)
		}
	}
}

// FuzzReadMatrixMarket feeds arbitrary bytes to the reader: it must never
// panic, and any matrix it returns must pass Check and CheckFinite. The dimension cap is
// lowered to 2^12 so a fuzzed size line cannot ask for gigabytes of column
// pointers; every other check is the public reader's.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 -3.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 4.0\n3 3 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 3 1\n2 3 7\n")
	for _, in := range mmBadInputs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		a, err := readMatrixMarket(strings.NewReader(in), 1<<12)
		if err != nil {
			return
		}
		if err := a.Check(); err != nil {
			t.Fatalf("returned matrix fails Check: %v", err)
		}
		if err := a.CheckFinite(); err != nil {
			t.Fatalf("returned matrix fails CheckFinite: %v", err)
		}
	})
}
