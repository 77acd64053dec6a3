package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func fromDense(d [][]float64) *sparse.CSC {
	m, n := len(d), len(d[0])
	coo := sparse.NewCOO(m, n, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if d[i][j] != 0 {
				coo.Add(i, j, d[i][j])
			}
		}
	}
	return coo.ToCSC(false)
}

func TestMaxCardinalityPermSimple(t *testing.T) {
	// Off-diagonal structure forcing an augmenting path.
	a := fromDense([][]float64{
		{0, 1, 0},
		{1, 0, 1},
		{1, 0, 0},
	})
	res, err := MaxCardinalityPermWith(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Permute(res.RowPerm, nil)
	for j := 0; j < 3; j++ {
		if b.At(j, j) == 0 {
			t.Fatalf("diagonal (%d,%d) is zero after matching", j, j)
		}
	}
}

func TestStructurallySingular(t *testing.T) {
	// Column 2 is empty: no perfect matching exists.
	a := fromDense([][]float64{
		{1, 1, 0},
		{1, 1, 0},
		{1, 1, 0},
	})
	if _, err := MaxCardinalityPermWith(a, nil); err != ErrStructurallySingular {
		t.Fatalf("err = %v, want ErrStructurallySingular", err)
	}
	if _, err := Bottleneck(a); err != ErrStructurallySingular {
		t.Fatalf("Bottleneck err = %v, want ErrStructurallySingular", err)
	}
	// Two columns sharing a single row.
	b := fromDense([][]float64{
		{1, 1, 1},
		{0, 0, 1},
		{0, 0, 1},
	})
	if _, err := MaxCardinalityPermWith(b, nil); err != ErrStructurallySingular {
		t.Fatalf("err = %v, want ErrStructurallySingular", err)
	}
}

func TestBottleneckMaximizesMinDiagonal(t *testing.T) {
	// Two perfect matchings exist: identity (min |diag| = min(0.01,1) =
	// 0.01) and the swap (min(2,5) = 2). Bottleneck must pick the swap.
	a := fromDense([][]float64{
		{0.01, 5},
		{2, 1},
	})
	res, err := Bottleneck(a)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Permute(res.RowPerm, nil)
	min := math.Inf(1)
	for j := 0; j < 2; j++ {
		if v := math.Abs(b.At(j, j)); v < min {
			min = v
		}
	}
	if min != 2 {
		t.Fatalf("bottleneck diagonal min = %v, want 2", min)
	}
	if res.Bottleneck != 2 {
		t.Fatalf("reported bottleneck = %v, want 2", res.Bottleneck)
	}
}

// randSquareWithDiag builds a random matrix guaranteed to have a zero-free
// diagonal under some permutation (it plants a random permutation diagonal).
func randSquareWithDiag(rng *rand.Rand, n int, density float64) *sparse.CSC {
	coo := sparse.NewCOO(n, n, n*3)
	planted := rng.Perm(n)
	for j := 0; j < n; j++ {
		coo.Add(planted[j], j, 1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSC(false)
}

func TestMatchingIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		a := randSquareWithDiag(rng, n, 0.1)
		res, err := MaxCardinalityPermWith(a, nil)
		if err != nil {
			return false
		}
		if !sparse.IsPerm(res.RowPerm) {
			return false
		}
		b := a.Permute(res.RowPerm, nil)
		for j := 0; j < n; j++ {
			if b.At(j, j) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBottleneckIsPermutationAndDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := randSquareWithDiag(rng, n, 0.15)
		res, err := Bottleneck(a)
		if err != nil {
			return false
		}
		if !sparse.IsPerm(res.RowPerm) {
			return false
		}
		b := a.Permute(res.RowPerm, nil)
		min := math.Inf(1)
		for j := 0; j < n; j++ {
			v := math.Abs(b.At(j, j))
			if v == 0 {
				return false
			}
			if v < min {
				min = v
			}
		}
		// The planted diagonal has all entries >= 1 minus possible
		// duplicate-sum interference; the bottleneck must be at least the
		// min achievable by the plain matching, and must equal the
		// reported threshold.
		return math.Abs(min-res.Bottleneck) < 1e-15 || min >= res.Bottleneck
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCardinalityRect(t *testing.T) {
	// Wide pattern: 2 rows, 3 cols; max matching is 2.
	a := fromDense([][]float64{
		{1, 1, 0},
		{0, 1, 1},
	})
	rowOf, size := maxCardinalityFiltered(a, 0, NewWorkspace())
	if size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	used := map[int]bool{}
	for j, r := range rowOf {
		if r == -1 {
			continue
		}
		if used[r] {
			t.Fatalf("row %d matched twice", r)
		}
		used[r] = true
		if a.At(r, j) == 0 {
			t.Fatalf("matched entry (%d,%d) is zero", r, j)
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	a := sparse.NewCSC(0, 0, 0)
	res, err := Bottleneck(a)
	if err != nil || len(res.RowPerm) != 0 {
		t.Fatalf("empty matrix: res=%v err=%v", res, err)
	}
}
