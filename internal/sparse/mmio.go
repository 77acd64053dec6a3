package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a MatrixMarket "coordinate" stream. Supported
// qualifiers: real/integer/pattern and general/symmetric. Pattern entries
// get value 1; symmetric files are expanded to full storage.
//
// The stream is untrusted: a malformed size line, an index outside the
// declared shape, a wrong entry count, a dimension above 2^26 or a value
// that is (or whose duplicates sum to) NaN or ±Inf is an error, never a
// panic, and memory grows with the entries actually read rather than the
// count the size line declares. A returned matrix passes Validate.
func ReadMatrixMarket(r io.Reader) (*CSC, error) {
	return readMatrixMarket(r, 1<<26)
}

// mmPrealloc caps the triplet storage reserved from the declared count.
const mmPrealloc = 1 << 16

// readMatrixMarket is ReadMatrixMarket with the largest accepted dimension
// as a parameter: the column pointers cost 16 bytes per column whatever
// the entry count, so the dimension must be bounded before anything is
// built.
func readMatrixMarket(r io.Reader, maxDim int) (*CSC, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad MatrixMarket header %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: only coordinate format supported, got %q", header[2])
	}
	field, sym := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported field %q", field)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", sym)
	}

	var m, n, nnz int
	sized := false
	for !sized && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &m, &n, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %w", line, err)
		}
		sized = true
	}
	switch {
	case !sized:
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sparse: reading MatrixMarket: %w", err)
		}
		return nil, fmt.Errorf("sparse: MatrixMarket stream has no size line")
	case m < 0 || n < 0 || m > maxDim || n > maxDim:
		return nil, fmt.Errorf("sparse: MatrixMarket dimensions %d×%d outside [0, %d]", m, n, maxDim)
	case nnz < 0 || int64(nnz) > int64(m)*int64(n):
		return nil, fmt.Errorf("sparse: MatrixMarket entry count %d outside [0, m·n] for %d×%d", nnz, m, n)
	case sym == "symmetric" && m != n:
		return nil, fmt.Errorf("sparse: symmetric MatrixMarket matrix is %d×%d", m, n)
	}
	coo := NewCOO(m, n, min(nnz, mmPrealloc))
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row in %q: %w", line, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col in %q: %w", line, err)
		}
		if i < 1 || i > m || j < 1 || j > n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) in %q outside the %d×%d matrix", i, j, line, m, n)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value in %q: %w", line, err)
			}
		}
		coo.Add(i-1, j-1, v)
		if sym == "symmetric" && i != j {
			coo.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket: %w", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, read %d", nnz, read)
	}
	a := coo.ToCSC(false)
	if err := a.CheckFinite(); err != nil {
		return nil, fmt.Errorf("sparse: MatrixMarket values: %w", err)
	}
	return a, nil
}

// WriteMatrixMarket writes a in MatrixMarket coordinate real general format.
func WriteMatrixMarket(w io.Writer, a *CSC) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.M, a.N, a.Nnz()); err != nil {
		return err
	}
	for j := 0; j < a.N; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", a.Rowidx[p]+1, j+1, a.Values[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
