package serve

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestPow10TableSpotCheck pins rows of the generated table against the
// published ones (strconv's detailedPowersOfTen, itself from Wuffs): both
// ends, the exactly representable range and its edge (10^27 is the last
// power whose 5^k fits 64 bits), and truncated negative powers.
func TestPow10TableSpotCheck(t *testing.T) {
	rows := []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-200, 0xBEDBFC4411068A9C, 0xC3F490AA77BD60FC},
		{-27, 0x775EA264CF55347D, 0x9E74D1B791E07E48},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{1, 0x0000000000000000, 0xA000000000000000},
		{27, 0x0000000000000000, 0xCECB8F27F4200F3A},
		{28, 0x4000000000000000, 0x813F3978F8940984},
		{55, 0xFFF4B4E3F741CF6D, 0xD0CF4B50CFE20765},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	}
	tab := pow10Table()
	for _, r := range rows {
		if got := tab[r.exp10-pow10Min]; got != [2]uint64{r.lo, r.hi} {
			t.Errorf("1e%d: {%#016X, %#016X}, want {%#016X, %#016X}", r.exp10, got[0], got[1], r.lo, r.hi)
		}
	}
}

// checkFloat holds scanFloat to strconv.ParseFloat on one literal: accepted
// exactly when ParseFloat returns no error, with the same bits, consuming
// the whole literal.
func checkFloat(t *testing.T, lit string) {
	t.Helper()
	want, err := strconv.ParseFloat(lit, 64)
	got, next, ok := scanFloat([]byte(lit+","), 0)
	if ok != (err == nil) {
		t.Fatalf("%q: accepted = %v, strconv error %v", lit, ok, err)
	}
	if ok && (math.Float64bits(got) != math.Float64bits(want) || next != len(lit)) {
		t.Fatalf("%q: %v (%#x) ending at %d, want %v (%#x) ending at %d",
			lit, got, math.Float64bits(got), next, want, math.Float64bits(want), len(lit))
	}
}

// TestScanFloatMatchesStrconv is the differential test of the number
// routine: over a million doubles drawn from random bit patterns, each
// written four ways, plus the boundary cases, must come back with the bits
// strconv.ParseFloat gives. It also counts how often the fast conversion
// decides the shortest form — the path requests actually take.
func TestScanFloatMatchesStrconv(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	rng := rand.New(rand.NewSource(1))
	shortest, fast := 0, 0
	for i := 0; i < draws; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lit := strconv.FormatFloat(v, 'g', -1, 64)
		shortest++
		if man, exp10, neg, exact, _, ok := scanNumber([]byte(lit), 0); ok && exact {
			if _, ok := eiselLemire64(man, exp10, neg); ok {
				fast++
			}
		}
		checkFloat(t, lit)
		checkFloat(t, strconv.FormatFloat(v, 'e', 16, 64)) // %e, 17 digits
		if i%8 == 0 {
			// Positional with 25 fraction digits: more than 19 significant
			// digits (the fallback) for most magnitudes, and a fraction with
			// leading zeros for the small ones. Bounded to keep the literal
			// from running to hundreds of digits.
			w := math.Float64frombits(math.Float64bits(v)&^(0x7FF<<52) | uint64(1023-40+rng.Intn(100))<<52)
			checkFloat(t, strconv.FormatFloat(w, 'f', 25, 64))
			checkFloat(t, strconv.FormatFloat(w*1e-12, 'f', -1, 64)) // 0.000…0ddd, shortest
		}
	}
	frac := float64(fast) / float64(shortest)
	t.Logf("Eisel–Lemire decided %d of %d shortest-form literals (%.5f)", fast, shortest, frac)
	if frac <= 0.99 {
		t.Errorf("the fast conversion must decide more than 0.99 of them")
	}

	// Subnormals, walked from the smallest up and down from the largest.
	for _, bits := range []uint64{1, 2, 3, 1<<52 - 1, 1 << 52, 1<<52 + 1, 0x000FFFFFFFFFFFFE} {
		v := math.Float64frombits(bits)
		checkFloat(t, strconv.FormatFloat(v, 'g', -1, 64))
		checkFloat(t, strconv.FormatFloat(v, 'e', 20, 64))
		checkFloat(t, "-"+strconv.FormatFloat(v, 'e', 16, 64))
	}
	for i := 0; i < 20_000; i++ {
		v := math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		checkFloat(t, strconv.FormatFloat(v, 'g', -1, 64))
	}

	for _, lit := range []string{
		"0", "-0", "0.0", "-0.0", "0e0", "-0e-0", "0E+5", "0.000", "1", "-1", "10", "1.5", "1e0", "1E0", "1e+0", "1e-0",
		"5e-324", "4.9e-324", "2.5e-324", "2.4e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072014e-308", "2.2250738585072011e-308", "2.225073858507201e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1.797693134862315807e308",
		"179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
		// Half-way cases: exactly between two doubles, and a hair to each side.
		"9007199254740993", "9007199254740992.5", "9007199254740993.0000000000000001", "9007199254740992.9999999999999999",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"8.98846567431158e307", "4.35e-322", "6.8e-322", "1e23", "8.5e22", "1e22", "1e-22", "1e15", "123456789012345678",
		"1234567890123456789", "12345678901234567890", "18446744073709551615", "18446744073709551616", "9999999999999999999",
		"99999999999999999999", "0.1", "0.2", "0.3", "0.30000000000000004", "3.141592653589793", "2.718281828459045e0",
		"0.000001", "0.0000001", "1e-7", "1e21", "1e-348", "1e-349", "1e347", "1e-400", "0.1e-400",
		"7.2057594037927933e16", "2.2250738585072012e-308", "6.631236871469758276785396630275967243399099947355303144249971758736286630139265439618068200788048744105960420552601852889715006376325666595539603330361800519107591783233358492337208057849499360899425128640718856616503093444922854759159988160304439909868291973931426625698663157749836252274523485312442358651207051292453083278116143932569727918709786004497872322193856150225415211997283078496319412124640111777216148110752815101775295719811974338451936095907419622417538473679495148632480391435931767981122396703443803335529756003353209830071832230689201383015598792184172909927924176339315507402234836120730914783168400715462440053817592702766213559042115986763819482654128770595766806872783349146967171293949598850675682115696218943412532098591327667236328125e-316",
		"1e999", "-1e999", "1e400", "-1e400", "1.8e308", "1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999",
		"123456789012345678901234567890e-999999999999", "0.0000000000000000000000000000000000000000000000000001e52",
	} {
		checkFloat(t, lit)
	}

	// Not JSON numbers, whatever strconv makes of them: scanFloat must stop
	// short of the end or refuse outright.
	for _, lit := range []string{
		"", "-", "+1", ".5", "1.", "1.e3", "1e", "1e+", "-e1", "01", "-01", "00", "0x10", "0x1p-2", "1_000", "Inf", "-Inf",
		"inf", "NaN", "nan", "1e1.5", "--1", "1,5", "١",
	} {
		if _, next, ok := scanFloat([]byte(lit), 0); ok && next == len(lit) {
			t.Errorf("%q: accepted as a whole JSON number", lit)
		}
	}
}

// TestScanIntMatchesStrconv holds the integer routine to strconv.ParseInt
// at the int64 boundaries and refuses what encoding/json refuses for an int.
func TestScanIntMatchesStrconv(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "1", "-1", "42", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "9999999999999999999", "10000000000000000000", "123456789012345678901",
	} {
		want, err := strconv.ParseInt(lit, 10, 64)
		got, next, ok := scanInt([]byte(lit), 0)
		if ok != (err == nil) || ok && (got != want || next != len(lit)) {
			t.Errorf("%q: (%d, %d, %v), want (%d, %d, %v)", lit, got, next, ok, want, len(lit), err == nil)
		}
	}
	for _, lit := range []string{"", "-", "+1", "01", "-01", "1.0", "1e0", "1E2", "1.5", "0x1"} {
		if _, next, ok := scanInt([]byte(lit), 0); ok && next == len(lit) {
			t.Errorf("%q: accepted as an integer", lit)
		}
	}
}
