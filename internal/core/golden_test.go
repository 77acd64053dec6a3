package core

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/matgen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files of the tests selected by -run")

const goldenPath = "testdata/analyze_golden.json"

// structHash is an FNV-64a over nested integer structure; every slice is
// length-prefixed so [[1],[2,3]] and [[1,2],[3]] differ.
type structHash struct{ h hash.Hash64 }

func (h structHash) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.h.Write(b[:])
}

func (h structHash) ints(s []int) {
	h.int(len(s))
	for _, v := range s {
		h.int(v)
	}
}

func (h structHash) ints2(s [][]int) {
	h.int(len(s))
	for _, r := range s {
		h.ints(r)
	}
}

func (h structHash) bools(s []bool) {
	h.int(len(s))
	for _, v := range s {
		if v {
			h.int(1)
		} else {
			h.int(0)
		}
	}
}

func hashOf(fill func(h structHash)) string {
	h := structHash{fnv.New64a()}
	fill(h)
	return fmt.Sprintf("%016x", h.h.Sum64())
}

// goldenOf digests everything Analyze decides: the composed permutations,
// the coarse boundaries, the fine-BTF estimates, and per fine-ND block the
// tree, the Algorithm 3 estimates, the dense tags and the supernode
// partitions.
func goldenOf(sym *Symbolic) map[string]string {
	g := map[string]string{
		"RowPerm":  hashOf(func(h structHash) { h.ints(sym.RowPerm) }),
		"ColPerm":  hashOf(func(h structHash) { h.ints(sym.ColPerm) }),
		"BlockPtr": hashOf(func(h structHash) { h.ints(sym.BlockPtr) }),
		"estNnz":   hashOf(func(h structHash) { h.ints(sym.estNnz) }),
	}
	for _, blk := range sym.ndBlocks {
		ns := sym.ndsym[blk]
		key := fmt.Sprintf("nd%d.", blk)
		g[key+"tree"] = hashOf(func(h structHash) { h.ints(ns.tree.BlockPtr); h.ints(ns.tree.Perm) })
		g[key+"est"] = hashOf(func(h structHash) {
			h.ints(ns.est.diagNnz)
			h.ints2(ns.est.lowerNnz)
			h.ints2(ns.est.upperNnz)
		})
		g[key+"dense"] = hashOf(func(h structHash) { h.bools(ns.dense) })
		g[key+"snodes"] = hashOf(func(h structHash) { h.ints2(ns.snodes) })
	}
	return g
}

// goldenClasses are the inputs the golden file covers: the Table I suite at
// quarter scale plus the benchmark's seven cold_factor classes at full
// scale.
func goldenClasses() map[string]matgen.Named {
	out := map[string]matgen.Named{}
	for _, m := range matgen.TableISuite(0.25) {
		out["tableI@0.25/"+m.Name] = m
	}
	for _, m := range coldClasses() {
		out["cold@1/"+m.Name] = m
	}
	return out
}

// TestAnalyzeGolden pins every structure Analyze produces against the file
// recorded before the symbolic front end moved onto the shared per-block
// graph: a change there may remove overhead but must not move a single
// permutation entry, estimate, tag or supernode boundary.
func TestAnalyzeGolden(t *testing.T) {
	got := map[string]map[string]string{}
	for name, m := range goldenClasses() {
		a := m.Gen()
		for _, threads := range []int{1, 4} {
			opts := DefaultOptions()
			opts.Threads = threads
			sym, err := Analyze(a, opts)
			if err != nil {
				t.Fatalf("%s T=%d: %v", name, threads, err)
			}
			got[fmt.Sprintf("%s/T%d", name, threads)] = goldenOf(sym)
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
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d fields, golden %d", name, len(g), len(w))
		}
		for field, wh := range w {
			if g[field] != wh {
				t.Errorf("%s: %s = %s, golden %s", name, field, g[field], wh)
			}
		}
	}
}
