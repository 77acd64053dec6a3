// Package amd implements an approximate minimum degree (AMD) fill-reducing
// ordering in the style of Amestoy, Davis and Duff (SIAM J. Matrix Anal.
// Appl. 17(4), 1996), the ordering KLU and Basker apply to every BTF
// diagonal block.
//
// The implementation works on the quotient graph: eliminated vertices become
// *elements* whose adjacency lists represent cliques implicitly. It uses
//   - element absorption (an element whose variables are all covered by the
//     newly formed element is removed),
//   - the Amestoy–Davis–Duff approximate external degree computed with the
//     one-pass |Le \ Lk| scan,
//   - supervariable detection by adjacency hashing and exact comparison,
//   - lazy deletion with on-demand workspace compaction.
package amd

import (
	"cmp"
	"slices"

	"repro/internal/sparse"
)

// Order computes a fill-reducing elimination order for the symmetric pattern
// of a (the pattern of a + aᵀ is formed internally; the diagonal is
// ignored). It returns a new-to-old permutation p: eliminating the vertices
// of a(p,p) in natural order yields low fill. It allocates a graph and a
// workspace per call; callers ordering many blocks keep both and call
// Workspace.Order.
func Order(a *sparse.CSC) []int {
	var g sparse.SymGraph
	g.Build(a, 0, a.N, nil)
	return new(Workspace).Order(&g)
}

type hashEntry struct{ i, hash int }

type liveBlock struct{ id, pe int }

// Workspace is the quotient-graph state of one ordering, kept by the caller
// so that ordering block after block allocates only while blocks grow (the
// caller-owned integer workspace of the AMD reference code). The zero value
// is ready to use; a Workspace serves one Order call at a time.
type Workspace struct {
	n    int
	pe   []int // start of adjacency block in iw (variables and elements)
	blen []int // total adjacency length (elements then variables)
	elen []int // number of leading element entries (variables only)
	nv   []int // supervariable size; 0 = dead (absorbed or eliminated)
	deg  []int // approximate external degree (vars) / |Le| in nv units (elems)
	dead []bool

	iw     []int
	iwTail int

	// degree lists
	head []int
	next []int
	prev []int

	// marks
	w    []int
	wflg int
	inLk []int
	tag  int

	// A supervariable's members form a list in merge order, headed by the
	// supervariable itself: mnext[v] follows v (-1 ends the list) and
	// mtail[i] is the last member of live supervariable i.
	mnext  []int
	mtail  []int
	order  []int
	nLive  int
	mindeg int

	scratch []int       // copy of an adjacency block during rewrites
	lk      []int       // pattern of the element being formed
	hashes  []hashEntry // supervariable-detection buckets of one elimination
	live    []liveBlock // compaction order
}

// Order computes the ordering for the symmetric adjacency structure g. The
// returned new-to-old permutation is owned by the workspace and valid until
// its next Order call.
func (s *Workspace) Order(g *sparse.SymGraph) []int {
	n := g.N
	s.order = sparse.GrowInts(s.order, n)[:0]
	if n <= 1 {
		if n == 1 {
			s.order = append(s.order, 0)
		}
		return s.order
	}
	s.n = n
	s.pe = sparse.GrowInts(s.pe, n)
	s.blen = sparse.GrowInts(s.blen, n)
	s.elen = sparse.GrowInts(s.elen, n)
	s.nv = sparse.GrowInts(s.nv, n)
	s.deg = sparse.GrowInts(s.deg, n)
	s.dead = sparse.GrowBools(s.dead, n)
	s.iw = sparse.GrowInts(s.iw, g.Nnz()+n+1)
	s.head = sparse.GrowInts(s.head, n+1)
	s.next = sparse.GrowInts(s.next, n)
	s.prev = sparse.GrowInts(s.prev, n)
	s.w = sparse.GrowInts(s.w, n)
	s.inLk = sparse.GrowInts(s.inLk, n)
	s.mnext = sparse.GrowInts(s.mnext, n)
	s.mtail = sparse.GrowInts(s.mtail, n)
	s.wflg, s.tag, s.mindeg, s.nLive = 0, 0, 0, n
	for i := range s.head {
		s.head[i] = -1
	}
	s.iwTail = copy(s.iw, g.Adj)
	for j := 0; j < n; j++ {
		s.pe[j] = g.Ptr[j]
		s.blen[j] = g.Ptr[j+1] - g.Ptr[j]
		s.elen[j] = 0
		s.deg[j] = s.blen[j]
		s.nv[j] = 1
		s.dead[j] = false
		s.w[j] = 0
		s.inLk[j] = 0
		s.mnext[j] = -1
		s.mtail[j] = j
		s.listInsert(j, s.deg[j])
	}

	for s.nLive > 0 {
		k := s.pickMinDegree()
		s.eliminate(k)
	}
	return s.order
}

func (s *Workspace) listInsert(i, d int) {
	s.next[i] = s.head[d]
	s.prev[i] = -1
	if s.head[d] != -1 {
		s.prev[s.head[d]] = i
	}
	s.head[d] = i
	if d < s.mindeg {
		s.mindeg = d
	}
}

func (s *Workspace) listRemove(i, d int) {
	if s.prev[i] != -1 {
		s.next[s.prev[i]] = s.next[i]
	} else {
		s.head[d] = s.next[i]
	}
	if s.next[i] != -1 {
		s.prev[s.next[i]] = s.prev[i]
	}
}

func (s *Workspace) pickMinDegree() int {
	for s.mindeg <= s.n {
		if h := s.head[s.mindeg]; h != -1 {
			s.listRemove(h, s.mindeg)
			return h
		}
		s.mindeg++
	}
	panic("amd: degree lists empty while variables remain")
}

// ensureSpace guarantees room for extra entries at iwTail, compacting the
// workspace (dropping dead blocks) and growing it if compaction is not
// enough.
func (s *Workspace) ensureSpace(extra int) {
	if s.iwTail+extra <= len(s.iw) {
		return
	}
	s.compact()
	if s.iwTail+extra > len(s.iw) {
		grown := make([]int, (s.iwTail+extra)*2)
		copy(grown, s.iw[:s.iwTail])
		s.iw = grown
	}
}

func (s *Workspace) compact() {
	live := s.live[:0]
	for i := 0; i < s.n; i++ {
		if s.dead[i] {
			continue
		}
		live = append(live, liveBlock{i, s.pe[i]})
	}
	s.live = live
	slices.SortFunc(live, func(a, b liveBlock) int { return cmp.Compare(a.pe, b.pe) })
	pos := 0
	for _, b := range live {
		l := s.blen[b.id]
		copy(s.iw[pos:pos+l], s.iw[b.pe:b.pe+l])
		s.pe[b.id] = pos
		pos += l
	}
	s.iwTail = pos
}

// eliminate removes supervariable k, forms element k, and updates degrees of
// all variables in the new element's pattern.
func (s *Workspace) eliminate(k int) {
	// ---- Build Lk: live variables adjacent to k directly or via k's
	// elements. Mark membership with inLk tags.
	s.tag++
	tag := s.tag
	lk := s.lk[:0]
	base := s.pe[k]
	for t := 0; t < s.blen[k]; t++ {
		e := s.iw[base+t]
		if t < s.elen[k] {
			// element neighbour
			if s.dead[e] {
				continue
			}
			eb := s.pe[e]
			for u := 0; u < s.blen[e]; u++ {
				v := s.iw[eb+u]
				if s.nv[v] > 0 && v != k && s.inLk[v] != tag {
					s.inLk[v] = tag
					lk = append(lk, v)
				}
			}
			s.dead[e] = true // absorbed into new element k
		} else {
			v := e
			if s.nv[v] > 0 && v != k && s.inLk[v] != tag {
				s.inLk[v] = tag
				lk = append(lk, v)
			}
		}
	}

	s.lk = lk
	// Emit k's variables in the final order.
	for v := k; v != -1; v = s.mnext[v] {
		s.order = append(s.order, v)
	}
	s.nLive -= s.nv[k]
	s.nv[k] = 0
	s.dead[k] = true

	if len(lk) == 0 {
		return
	}

	// Store Lk as element k's list.
	s.dead[k] = false // k lives on as an element
	s.ensureSpace(len(lk))
	s.pe[k] = s.iwTail
	copy(s.iw[s.iwTail:], lk)
	s.iwTail += len(lk)
	s.blen[k] = len(lk)
	s.elen[k] = 0
	degLk := 0
	for _, v := range lk {
		degLk += s.nv[v]
	}
	s.deg[k] = degLk

	// ---- Scan 1: compute w[e] so that |Le \ Lk| = w[e] - wflg for every
	// element e adjacent to a variable in Lk.
	s.wflg += 2 * (s.n + 2)
	wflg := s.wflg
	for _, i := range lk {
		ib := s.pe[i]
		for t := 0; t < s.elen[i]; t++ {
			e := s.iw[ib+t]
			if s.dead[e] || e == k {
				continue
			}
			if s.w[e] < wflg {
				s.w[e] = s.deg[e] + wflg
			}
			s.w[e] -= s.nv[i]
		}
	}

	// ---- Scan 2: rewrite adjacency of each i in Lk, compute approximate
	// degree, detect supervariables.
	hashes := s.hashes[:0]
	for _, i := range lk {
		if s.nv[i] <= 0 {
			continue // merged away earlier in this scan (defensive)
		}
		s.listRemove(i, s.deg[i])
		ib := s.pe[i]
		// Rewrite happens in place; read from a scratch copy so writing the
		// new leading entry (element k) cannot clobber unread entries.
		s.scratch = append(s.scratch[:0], s.iw[ib:ib+s.blen[i]]...)
		d := 0
		hash := k
		// Elements: keep live ones with |Le \ Lk| > 0.
		out := ib
		s.iw[out] = k
		out++
		for t := 0; t < s.elen[i]; t++ {
			e := s.scratch[t]
			if e == k || s.dead[e] {
				continue
			}
			ext := s.w[e] - wflg
			if ext <= 0 {
				// Le ⊆ Lk ∪ {i}: absorb e into k.
				s.dead[e] = true
				continue
			}
			d += ext
			s.iw[out] = e
			out++
			hash += e
		}
		newElen := out - ib
		// Variables: keep live ones outside Lk (and not k itself).
		for t := s.elen[i]; t < s.blen[i]; t++ {
			v := s.scratch[t]
			if v == k || s.nv[v] <= 0 || s.inLk[v] == tag {
				continue
			}
			d += s.nv[v]
			s.iw[out] = v
			out++
			hash += v
		}
		s.elen[i] = newElen
		s.blen[i] = out - ib
		d += degLk - s.nv[i] // |Lk \ i| in nv units
		if lim := s.nLive - s.nv[i]; d > lim {
			d = lim
		}
		if d < 0 {
			d = 0
		}
		s.deg[i] = d
		s.listInsert(i, d)
		if hash < 0 {
			hash = -hash
		}
		hashes = append(hashes, hashEntry{i, hash % (4 * s.n)})
	}

	s.hashes = hashes

	// ---- Supervariable detection: bucket by hash, compare exact lists.
	// Which member of an equal-hash bucket absorbs the others follows the
	// sorted order, so the final permutation depends on how this sort leaves
	// ties: slices.SortFunc runs the same pattern-defeating quicksort as the
	// sort.Slice it replaced (minus the reflection swapper), compare for
	// compare.
	slices.SortFunc(hashes, func(a, b hashEntry) int { return cmp.Compare(a.hash, b.hash) })
	for lo := 0; lo < len(hashes); {
		hi := lo + 1
		for hi < len(hashes) && hashes[hi].hash == hashes[lo].hash {
			hi++
		}
		if hi-lo > 1 {
			s.mergeEqualAdjacency(hashes[lo:hi])
		}
		lo = hi
	}
}

// mergeEqualAdjacency merges variables in the bucket whose quotient-graph
// adjacency lists are identical sets (they are indistinguishable and will
// have the same elimination behaviour).
func (s *Workspace) mergeEqualAdjacency(bucket []hashEntry) {
	for a := 0; a < len(bucket); a++ {
		i := bucket[a].i
		if s.nv[i] <= 0 {
			continue
		}
		for b := a + 1; b < len(bucket); b++ {
			j := bucket[b].i
			if s.nv[j] <= 0 {
				continue
			}
			if s.sameAdjacency(i, j) {
				// Merge j into i.
				s.listRemove(j, s.deg[j])
				s.listRemove(i, s.deg[i])
				s.deg[i] -= s.nv[j] // j no longer an external neighbour
				if s.deg[i] < 0 {
					s.deg[i] = 0
				}
				s.nv[i] += s.nv[j]
				s.nv[j] = 0
				s.dead[j] = true
				s.mnext[s.mtail[i]] = j
				s.mtail[i] = s.mtail[j]
				s.listInsert(i, s.deg[i])
			}
		}
	}
}

// sameAdjacency reports whether live adjacency sets of variables i and j are
// identical ignoring each other.
func (s *Workspace) sameAdjacency(i, j int) bool {
	s.tag++
	tag := s.tag
	ci := 0
	ib := s.pe[i]
	for t := 0; t < s.blen[i]; t++ {
		v := s.iw[ib+t]
		if v == j || (t >= s.elen[i] && s.nv[v] <= 0) || (t < s.elen[i] && s.dead[v]) {
			continue
		}
		if s.inLk[v] != tag {
			s.inLk[v] = tag
			ci++
		}
	}
	jb := s.pe[j]
	cj := 0
	for t := 0; t < s.blen[j]; t++ {
		v := s.iw[jb+t]
		if v == i || (t >= s.elen[j] && s.nv[v] <= 0) || (t < s.elen[j] && s.dead[v]) {
			continue
		}
		if s.inLk[v] != tag {
			return false
		}
		s.inLk[v] = tag - 1 // consume the mark; duplicates would fail
		cj++
	}
	return ci == cj
}
