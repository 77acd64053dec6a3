package klu

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/matgen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/analyze_golden.json from the current Analyze")

const goldenPath = "testdata/analyze_golden.json"

func hashInts(s []int) string {
	f := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		f.Write(b[:])
	}
	put(len(s))
	for _, v := range s {
		put(v)
	}
	return fmt.Sprintf("%016x", f.Sum64())
}

// TestAnalyzeGolden pins the baseline's orderings and fill estimates on the
// same classes core's golden test covers: the two solvers share the
// per-block ordering kernels, and a rewrite of those must move neither.
func TestAnalyzeGolden(t *testing.T) {
	classes := map[string]matgen.Named{}
	for _, m := range matgen.TableISuite(0.25) {
		classes["tableI@0.25/"+m.Name] = m
	}
	cold := matgen.Fig5Subset(1)
	for _, m := range matgen.TableISuite(1) {
		if m.Name == "Xyce1" {
			cold = append(cold, m)
		}
	}
	for _, m := range cold {
		classes["cold@1/"+m.Name] = m
	}
	got := map[string]map[string]string{}
	for name, m := range classes {
		sym, err := Analyze(m.Gen(), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = map[string]string{
			"RowPerm":  hashInts(sym.RowPerm),
			"ColPerm":  hashInts(sym.ColPerm),
			"BlockPtr": hashInts(sym.BlockPtr),
			"EstNnz":   hashInts(sym.EstNnz),
		}
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, Analyze produced %d", len(want), len(got))
	}
	for name, w := range want {
		for field, wh := range w {
			if got[name][field] != wh {
				t.Errorf("%s: %s = %s, golden %s", name, field, got[name][field], wh)
			}
		}
	}
}
