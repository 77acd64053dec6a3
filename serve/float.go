package serve

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// This file is the request scanner's number routine. A JSON number is
// validated against the RFC 8259 grammar and reduced to a decimal mantissa
// and exponent in one pass over its bytes, then converted by the
// Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
// Second", SPE 2021 — the conversion strconv.ParseFloat itself runs after
// its own, separate scan of the digits). Whatever the fast conversion
// cannot decide — more than 19 significant digits, a decimal exponent
// outside the table, a half-way case, a subnormal or overflowing result —
// goes to strconv.ParseFloat on the same bytes, so every accepted number has
// exactly the bits the encoding/json decoder produced for it.

const (
	pow10Min = -348 // decimal exponent of the table's first row
	pow10Max = +347

	// maxMantissaDigits is how many significant digits fit a uint64
	// whatever they are (10^19 < 2^64).
	maxMantissaDigits = 19
)

// pow10Table holds, for each e in [pow10Min, pow10Max], the 128 most
// significant bits of 10^e, truncated, as {low, high} words: row e−pow10Min
// approximates 10^e from below by (high·2^64 + low)·2^k for the k that
// normalises high's top bit. These are the rows of strconv's
// detailedPowersOfTen; building them takes about a millisecond and happens
// on the first request.
var pow10Table = sync.OnceValue(func() *[pow10Max - pow10Min + 1][2]uint64 {
	var (
		t    [pow10Max - pow10Min + 1][2]uint64
		ten  = big.NewInt(10)
		mask = new(big.Int).SetUint64(math.MaxUint64)
		p, z big.Int
	)
	for e := pow10Min; e <= pow10Max; e++ {
		if e >= 0 {
			z.Exp(ten, big.NewInt(int64(e)), nil)
			if n := z.BitLen(); n <= 128 {
				z.Lsh(&z, uint(128-n))
			} else {
				z.Rsh(&z, uint(n-128))
			}
		} else {
			// 2^(len+127) / 10^-e lies in (2^127, 2^128): 10^-e is no power
			// of two, so the quotient has exactly 128 bits.
			p.Exp(ten, big.NewInt(int64(-e)), nil)
			z.Lsh(big.NewInt(1), uint(p.BitLen()+127))
			z.Quo(&z, &p)
		}
		t[e-pow10Min][0] = p.And(&z, mask).Uint64()
		t[e-pow10Min][1] = z.Rsh(&z, 64).Uint64()
	}
	return &t
})

// eiselLemire64 converts man·10^exp10 to the nearest float64, or reports
// ok = false when 128 bits of the power of ten cannot settle the rounding
// and the caller must use a full-precision conversion. The steps are those
// of strconv's eiselLemire64, whose results it therefore reproduces.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table()[exp10-pow10Min]

	// Normalise the mantissa; 217706/2^16 approximates log2(10), which
	// places the binary exponent of the product.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// 64×64 product with the high word of the power; when its low nine bits
	// cannot rule out a carry from the part of the power not yet multiplied,
	// bring in the low word.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yhi, ylo := bits.Mul64(man, pow[0])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Keep 54 bits: 53 of mantissa and one to round on.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	// Exactly half-way between two floats as far as these bits show: the
	// truncated power of ten may be hiding which side it is on.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// Subnormal (exp2 ≤ 0, wrapped) or infinite (exp2 ≥ 0x7FF) results are
	// the full-precision conversion's to round or refuse.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

func isDigit(c byte) bool { return c-'0' <= 9 }

// scanNumber validates the JSON number that starts at buf[i] and returns
// its value as (−1)^neg · man · 10^exp10 together with the index one past
// its last byte. exact is false when the literal has more significant
// digits than man holds, in which case man and exp10 are not its value. ok
// is false when no JSON number starts at i.
func scanNumber(buf []byte, i int) (man uint64, exp10 int, neg, exact bool, next int, ok bool) {
	if i < len(buf) && buf[i] == '-' {
		neg = true
		i++
	}
	if i >= len(buf) || !isDigit(buf[i]) {
		return 0, 0, false, false, i, false
	}
	digits := 0 // significant digits in man
	exact = true
	if buf[i] == '0' {
		i++ // a leading zero is the whole integer part
	} else {
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if digits < maxMantissaDigits {
				man = man*10 + uint64(buf[i]-'0')
				digits++
			} else {
				exact = false
			}
		}
	}
	if i < len(buf) && buf[i] == '.' {
		i++
		if i >= len(buf) || !isDigit(buf[i]) {
			return 0, 0, false, false, i, false
		}
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if digits < maxMantissaDigits {
				man = man*10 + uint64(buf[i]-'0')
				exp10--
				if man != 0 {
					digits++ // zeros ahead of the first nonzero digit carry no precision
				}
			} else {
				exact = false
			}
		}
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			if buf[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(buf) || !isDigit(buf[i]) {
			return 0, 0, false, false, i, false
		}
		e := 0
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if e < 100000 { // far outside the table already; keeps e from overflowing
				e = e*10 + int(buf[i]-'0')
			}
		}
		exp10 += esign * e
	}
	return man, exp10, neg, exact, i, true
}

// scanFloat reads the JSON number at buf[i] as a float64, bit for bit what
// strconv.ParseFloat returns for the same bytes. Numbers that overflow
// float64 are refused, as encoding/json refuses them.
func scanFloat(buf []byte, i int) (f float64, next int, ok bool) {
	man, exp10, neg, exact, next, ok := scanNumber(buf, i)
	if !ok {
		return 0, next, false
	}
	if exact {
		if f, ok := eiselLemire64(man, exp10, neg); ok {
			return f, next, true
		}
	}
	f, err := strconv.ParseFloat(string(buf[i:next]), 64)
	return f, next, err == nil
}

// scanInt reads the JSON number at buf[i] as an integer. Literals with a
// fraction or an exponent, and values outside int64, are refused, as
// encoding/json refuses them for an integer field.
func scanInt(buf []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(buf) && isDigit(buf[i]); i++ {
		if i-start < maxMantissaDigits {
			u = u*10 + uint64(buf[i]-'0')
		}
	}
	n := i - start
	if n == 0 || n > maxMantissaDigits || n > 1 && buf[start] == '0' {
		return 0, i, false
	}
	if i < len(buf) && (buf[i] == '.' || buf[i]|0x20 == 'e') {
		return 0, i, false
	}
	if neg {
		return int64(-u), i, u <= 1<<63
	}
	return int64(u), i, u <= math.MaxInt64
}
