package serve

import (
	"bytes"
	"fmt"
	"slices"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the request half of the wire: one scanner over the
// fully-read body that knows the request schema. It accepts a subset of
// what encoding/json accepted for the same structs (the package comment
// lists the differences) and produces, for everything it accepts, the
// values encoding/json produced — FuzzDecodeRequest holds it to that.

// The members of a request object, as bits of the set an endpoint accepts
// and of the set a body has supplied so far. Bit k names topKeys[k].
const (
	keyMatrix = 1 << iota
	keyTriplets
	keyID
	keyValues
	keyB
	keyBs
	keyMode
	keyTimeout
	keyWarm

	solveKeys    = keyMatrix | keyTriplets | keyID | keyValues | keyB | keyBs | keyMode | keyTimeout
	factorKeys   = solveKeys &^ (keyB | keyBs)
	registerKeys = keyMatrix | keyTriplets | keyWarm | keyTimeout
)

var (
	topKeys      = []string{"matrix", "triplets", "id", "values", "b", "bs", "mode", "timeout_ms", "warm"}
	matrixKeys   = []string{"m", "n", "colptr", "rowidx", "values"}
	tripletsKeys = []string{"m", "n", "rows", "cols", "values"}
)

// maxSkipDepth bounds the nesting of a member the schema does not know;
// encoding/json allowed 10 000 levels.
const maxSkipDepth = 32

// request is what a body decodes to: the union of SolveRequest,
// FactorRequest and RegisterRequest, of which an endpoint reads the members
// its key set admits. Its slices live in the scratch it was decoded into.
type request struct {
	matrix        *MatrixJSON
	triplets      *TripletsJSON
	id            string
	values        []float64
	b             []float64
	bs            [][]float64
	mode          string
	timeoutMillis int64
	warm          bool
}

// scratch is everything one request needs that is proportional to its
// size: the body, the decoded arrays, the response bytes. A handler takes
// one from scratchPool and puts it back after the reply is written; nothing
// that outlives the request may point into it (handleRegister clones what
// the registry keeps, and the pool gathers the matrix into storage of its
// own before any worker runs).
type scratch struct {
	body []byte
	resp []byte

	matrix, triplets shape
	values, b        []float64
	slab             []float64   // the rows of bs, end to end
	rowEnds          []int       // where each ends in slab
	bs               [][]float64 // headers into slab

	req request
	mj  MatrixJSON
	tj  TripletsJSON
}

// scanner is a cursor over a request body.
type scanner struct {
	buf []byte
	pos int
}

func (s *scanner) errorf(format string, args ...any) error {
	return badRequest("bad_input", "invalid JSON request body at offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// peek skips insignificant whitespace and returns the byte it stops at, 0
// at the end of the body.
func (s *scanner) peek() byte {
	for ; s.pos < len(s.buf); s.pos++ {
		if c := s.buf[s.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// expect consumes the next significant byte, which must be c.
func (s *scanner) expect(c byte) error {
	if got := s.peek(); got != c {
		return s.errorf("want %q", c)
	}
	s.pos++
	return nil
}

// literal consumes word if the next significant bytes spell it.
func (s *scanner) literal(word string) bool {
	s.peek()
	if !bytes.HasPrefix(s.buf[s.pos:], []byte(word)) {
		return false
	}
	s.pos += len(word)
	return true
}

// member advances to the next member of an object — first says whether its
// '{' was the last thing consumed — and returns which of names it is, −1
// for a name the schema does not know, with the cursor on the member's
// value. more is false once the closing brace is consumed. seen accumulates
// the known members; a second occurrence of one is an error, where
// encoding/json let the last win.
func (s *scanner) member(first bool, names []string, seen *uint) (idx int, more bool, err error) {
	c := s.peek()
	if c == '}' && first {
		s.pos++
		return 0, false, nil
	}
	if !first {
		switch c {
		case '}':
			s.pos++
			return 0, false, nil
		case ',':
			s.pos++
		default:
			return 0, false, s.errorf("want ',' or '}' after object member")
		}
	}
	name, err := s.str()
	if err != nil {
		return 0, false, err
	}
	if err := s.expect(':'); err != nil {
		return 0, false, err
	}
	// encoding/json matched names exactly, then under Unicode case folding;
	// no two names of one object here are equal under folding.
	idx = slices.IndexFunc(names, func(n string) bool { return bytes.EqualFold(name, []byte(n)) })
	if idx >= 0 {
		if *seen&(1<<idx) != 0 {
			return 0, false, s.errorf("duplicate member %q", names[idx])
		}
		*seen |= 1 << idx
	}
	return idx, true, nil
}

// str consumes a string and returns its value, which aliases the body
// unless it had escapes or malformed UTF-8 to rewrite.
func (s *scanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.pos
	plain := true
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case c == '"':
			raw := s.buf[start:s.pos]
			s.pos++
			if plain {
				return raw, nil
			}
			return unescape(raw), nil
		case c < ' ':
			return nil, s.errorf("control character in string")
		case c == '\\':
			plain = false
			s.pos++
			if s.pos >= len(s.buf) {
				return nil, s.errorf("unterminated string")
			}
			switch s.buf[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(s.buf[s.pos+1:]) < 0 {
					return nil, s.errorf("invalid \\u escape")
				}
				s.pos += 4
			default:
				return nil, s.errorf("invalid escape")
			}
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, s.errorf("unterminated string")
}

// hex4 reads four hexadecimal digits, or returns −1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			c = c | 0x20 - 'a' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape resolves the escapes of a validated string body the way
// encoding/json did: surrogate halves pair up or become U+FFFD, and so does
// every byte that is not UTF-8.
func unescape(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			r, n := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += n
			continue
		}
		c = raw[i+1]
		i += 2
		switch c {
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			r := hex4(raw[i:])
			i += 4
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if bytes.HasPrefix(raw[i:], []byte(`\u`)) {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
			continue
		}
		out = append(out, c)
	}
	return out
}

// more consumes what follows an array element: the ',' before the next one
// or the closing ']'.
func (s *scanner) more() (bool, error) {
	switch s.peek() {
	case ',':
		s.pos++
		return true, nil
	case ']':
		s.pos++
		return false, nil
	}
	return false, s.errorf("want ',' or ']' after array element")
}

// skip consumes one value of any type, checking its syntax.
func (s *scanner) skip(depth int) error {
	if depth > maxSkipDepth {
		return s.errorf("unknown member nested deeper than %d levels", maxSkipDepth)
	}
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '{':
		s.pos++
		var seen uint
		for first := true; ; first = false {
			_, more, err := s.member(first, nil, &seen)
			if err != nil || !more {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '[':
		s.pos++
		if s.peek() == ']' {
			s.pos++
			return nil
		}
		for more := true; more; {
			err := s.skip(depth + 1)
			if err == nil {
				more, err = s.more()
			}
			if err != nil {
				return err
			}
		}
		return nil
	case c == '-' || isDigit(c):
		_, _, _, _, next, ok := scanNumber(s.buf, s.pos)
		s.pos = next
		if !ok {
			return s.errorf("malformed number")
		}
		return nil
	case s.literal("true") || s.literal("false") || s.literal("null"):
		return nil
	}
	return s.errorf("want a value")
}

// integer reads an integer member.
func (s *scanner) integer() (int64, error) {
	s.peek()
	v, next, ok := scanInt(s.buf, s.pos)
	s.pos = next
	if !ok {
		return 0, s.errorf("want an integer")
	}
	return v, nil
}

// int is integer for a member of type int.
func (s *scanner) int() (int, error) {
	v, err := s.integer()
	if err == nil && int64(int(v)) != v {
		err = s.errorf("want an integer that fits an int")
	}
	return int(v), err
}

// array opens the array of numbers at the cursor and returns how many
// elements it holds — one more than the commas up to its ']' — so that its
// storage is allocated once, from a count bounded by the bytes present and
// never from a length the body merely claims. An empty array is consumed
// whole. With limit ≥ 0 an array longer than limit is refused here, before
// an element is read; what names it in the error.
func (s *scanner) array(limit int, what string) (int, error) {
	if err := s.expect('['); err != nil {
		return 0, err
	}
	if s.peek() == ']' {
		s.pos++
		return 0, nil
	}
	end := bytes.IndexByte(s.buf[s.pos:], ']')
	if end < 0 {
		return 0, s.errorf("unterminated array")
	}
	n := bytes.Count(s.buf[s.pos:s.pos+end], []byte{','}) + 1
	if limit >= 0 && n > limit {
		return 0, badRequest("dimension_mismatch", "%s carries %d entries; the registered pattern takes %d", what, n, limit)
	}
	return n, nil
}

// floats appends the array of numbers at the cursor to dst and returns dst,
// never nil. limit and what are array's.
func (s *scanner) floats(dst []float64, limit int, what string) ([]float64, error) {
	n, err := s.array(limit, what)
	dst = slices.Grow(dst, max(n, 1))
	for more := n > 0; more && err == nil; {
		s.peek()
		f, next, ok := scanFloat(s.buf, s.pos)
		s.pos = next
		if !ok {
			return dst, s.errorf("want a number that fits a float64")
		}
		dst = append(dst, f)
		more, err = s.more()
	}
	return dst, err
}

// ints is floats for an array of integers.
func (s *scanner) ints(dst []int) ([]int, error) {
	n, err := s.array(-1, "")
	dst = slices.Grow(dst, max(n, 1))
	for more := n > 0; more && err == nil; {
		var v int
		if v, err = s.int(); err == nil {
			dst = append(dst, v)
			more, err = s.more()
		}
	}
	return dst, err
}

// shape is the object both matrix forms are on the wire: two dimensions, two
// index arrays, one value array. In a scratch it is the storage for those.
type shape struct {
	m, n int
	idx  [2][]int
	vals []float64
}

// shape reads such an object, whose members go by names, into buf's storage.
func (s *scanner) shape(names []string, buf *shape) (shape, error) {
	var out shape
	if err := s.expect('{'); err != nil {
		return out, err
	}
	var seen uint
	for first := true; ; first = false {
		k, more, err := s.member(first, names, &seen)
		if err != nil || !more {
			return out, err
		}
		switch {
		case k < 0:
			err = s.skip(1)
		case s.literal("null"): // the member's zero value, to encoding/json too
		case k == 0:
			out.m, err = s.int()
		case k == 1:
			out.n, err = s.int()
		case k == 4:
			buf.vals, err = s.floats(buf.vals[:0], -1, "")
			out.vals = buf.vals
		default:
			buf.idx[k-2], err = s.ints(buf.idx[k-2][:0])
			out.idx[k-2] = buf.idx[k-2]
		}
		if err != nil {
			return out, err
		}
	}
}

// decodeRequest reads body as the request object of an endpoint that takes
// the members in keys, into sc. Once an id that names a registered pattern
// has been read, values, b and the rows of bs are held to that pattern's
// lengths as they are read.
func (s *Server) decodeRequest(body []byte, keys uint, sc *scratch) (*request, error) {
	in := scanner{buf: body}
	req := &sc.req
	*req = request{}
	if err := in.expect('{'); err != nil {
		return nil, err
	}
	nnz, n := -1, -1 // the registered pattern's lengths, once known
	var seen uint
	for first := true; ; first = false {
		k, more, err := in.member(first, topKeys, &seen)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		var key uint // 0 for a name no endpoint knows
		if k >= 0 {
			key = 1 << k
		}
		var str []byte
		switch {
		case keys&key == 0: // not this endpoint's: unknown
			err = in.skip(1)
		case in.literal("null"): // the member's zero value, to encoding/json too
		case key == keyMatrix:
			var sh shape
			sh, err = in.shape(matrixKeys, &sc.matrix)
			sc.mj = MatrixJSON{M: sh.m, N: sh.n, Colptr: sh.idx[0], Rowidx: sh.idx[1], Values: sh.vals}
			req.matrix = &sc.mj
		case key == keyTriplets:
			var sh shape
			sh, err = in.shape(tripletsKeys, &sc.triplets)
			sc.tj = TripletsJSON{M: sh.m, N: sh.n, Rows: sh.idx[0], Cols: sh.idx[1], Values: sh.vals}
			req.triplets = &sc.tj
		case key == keyID:
			if str, err = in.str(); err == nil {
				req.id = string(str)
				if v, ok := s.registry.Load(req.id); ok {
					a := v.(*pattern).a
					nnz, n = len(a.Values), a.N
				}
			}
		case key == keyValues:
			sc.values, err = in.floats(sc.values[:0], nnz, "values")
			req.values = sc.values
		case key == keyB:
			sc.b, err = in.floats(sc.b[:0], n, "b")
			req.b = sc.b
		case key == keyBs:
			err = in.rows(sc, n)
			req.bs = sc.bs
		case key == keyMode:
			str, err = in.str()
			req.mode = string(str)
		case key == keyTimeout:
			req.timeoutMillis, err = in.integer()
		case key == keyWarm:
			if req.warm = in.literal("true"); !req.warm && !in.literal("false") {
				err = in.errorf("want true or false")
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if in.peek(); in.pos < len(body) {
		return nil, in.errorf("data after the request object")
	}
	return req, nil
}

// rows reads the array of arrays that is bs into sc.bs: the rows go end to
// end into one slab, which may move while it grows, so the row headers are
// cut from it afterwards.
func (s *scanner) rows(sc *scratch, limit int) error {
	if err := s.expect('['); err != nil {
		return err
	}
	sc.slab, sc.rowEnds = sc.slab[:0], sc.rowEnds[:0]
	more := s.peek() != ']'
	if !more {
		s.pos++
	}
	for more {
		var err error
		if sc.slab, err = s.floats(sc.slab, limit, "a row of bs"); err == nil {
			sc.rowEnds = append(sc.rowEnds, len(sc.slab))
			more, err = s.more()
		}
		if err != nil {
			return err
		}
	}
	sc.bs = slices.Grow(sc.bs[:0], max(len(sc.rowEnds), 1))
	start := 0
	for _, end := range sc.rowEnds {
		sc.bs = append(sc.bs, sc.slab[start:end:end])
		start = end
	}
	return nil
}
