package core

// chunkBits is the width of one closure chunk: 512 bits, eight words.
const chunkBits = 512

// chunk is one 512-bit slice of an ancestor row. It holds no pointers, so
// neither the chunk slab nor the intern map is scanned by the GC.
type chunk [chunkBits / 64]uint64

// rdag is the reachability dag R of MultiBags+ (§5). Its nodes are the
// attached sets; it explicitly maintains a full transitive closure so that
// "is there a path from A to B" is a single bit test.
//
// Each node stores the bitset of its ancestors (excluding itself) plus a
// successor list. The paper computes a node's closure when the node is
// added; the sync case (Figure 4 lines 35–36) can additionally insert arcs
// between pre-existing nodes, so arc insertion ORs ancestor sets and
// propagates the change along successor lists until it stops changing
// anything. FutureRD represents R exactly this way: "a vector of bit
// vectors ... reachability is transitively propagated via parallel bit
// operations".
//
// The bit vectors are stored as interned copy-on-write chunks. A row is a
// list of chunk ids, one per 512 ancestors; chunk id 0 is the all-zero
// chunk, and ids past the end of a row read as 0. Every other chunk lives
// once in the slab, however many rows share it: a node's ancestors in
// lcs-like dags form a few repeating runs, so distinct chunks are orders
// of magnitude fewer than row slots. A chunk is never written after it is
// interned; an OR that adds bits interns the result and repoints the row.
// The algorithm and its k² bound are unchanged; only the closure's
// memory shrinks.
type rdag struct {
	rows [][]uint32
	succ [][]int32
	slab []chunk          // slab[id]; slab[0] is the zero chunk
	ids  map[chunk]uint32 // interned chunk → its slab id
	arcs uint64
}

// addNode creates a new node with no arcs and returns its id.
func (r *rdag) addNode() int32 {
	if r.slab == nil {
		r.slab = make([]chunk, 1)
		r.ids = map[chunk]uint32{{}: 0}
	}
	r.rows = append(r.rows, nil)
	r.succ = append(r.succ, nil)
	return int32(len(r.rows) - 1)
}

// addArc inserts arc a → b and restores the transitive closure.
func (r *rdag) addArc(a, b int32) {
	if a == b || r.reaches(a, b) {
		return // already reachable or self arc; closure unchanged
	}
	r.arcs++
	r.succ[a] = append(r.succ[a], b)
	r.propagate(b, a)
}

// propagate ORs node src's ancestors plus src itself into node x and, if
// that changed x, recurses along x's successors. Because the dag is
// acyclic and each step only adds bits, this terminates.
//
// The OR runs chunk by chunk: a zero source chunk, or the very chunk the
// target already holds, adds nothing; a zero target chunk just takes the
// source's id; and only an OR that adds bits to a non-zero target interns
// a new chunk.
func (r *rdag) propagate(x, src int32) {
	sr, own := r.rows[src], int(src/chunkBits)
	tr := r.rows[x]
	if n := max(len(sr), own+1); len(tr) < n {
		tr = append(tr, make([]uint32, n-len(tr))...)
		r.rows[x] = tr
	}
	changed := false
	for c, sid := range sr {
		if sid == 0 || sid == tr[c] || c == own {
			continue
		}
		if tr[c] == 0 {
			tr[c] = sid
			changed = true
			continue
		}
		if or, grew := orChunk(r.slab[tr[c]], &r.slab[sid]); grew {
			tr[c] = r.intern(or)
			changed = true
		}
	}
	// src's own chunk also carries src's bit.
	var mine chunk
	if own < len(sr) {
		mine = r.slab[sr[own]]
	}
	mine[src/64%8] |= 1 << (src % 64)
	if or, grew := orChunk(r.slab[tr[own]], &mine); grew {
		tr[own] = r.intern(or)
		changed = true
	}
	if !changed {
		return
	}
	for _, s := range r.succ[x] {
		r.propagate(s, x)
	}
}

// orChunk returns t ∪ s and whether s added any bit to t.
func orChunk(t chunk, s *chunk) (chunk, bool) {
	grew := false
	for i, w := range s {
		if w&^t[i] != 0 {
			t[i] |= w
			grew = true
		}
	}
	return t, grew
}

// intern returns the slab id of c, storing c if it is new.
func (r *rdag) intern(c chunk) uint32 {
	if id, ok := r.ids[c]; ok {
		return id
	}
	id := uint32(len(r.slab))
	r.slab = append(r.slab, c)
	r.ids[c] = id
	return id
}

// reaches reports whether there is a (non-empty) path from a to b.
func (r *rdag) reaches(a, b int32) bool {
	row, c := r.rows[b], int(a/chunkBits)
	return c < len(row) && r.slab[row[c]][a/64%8]&(1<<(a%64)) != 0
}

// nodes returns the number of nodes in R.
func (r *rdag) nodes() int { return len(r.rows) }

// closureWords returns the number of 64-bit words held by the transitive
// closure, the "memory required for the reachability matrix R" that the
// paper calls out for small base cases (Figure 8 discussion): the row
// slots (two 32-bit chunk ids per word) plus every chunk in the slab,
// including the zero chunk and chunks no row points at any more.
func (r *rdag) closureWords() uint64 {
	var ids uint64
	for _, row := range r.rows {
		ids += uint64(len(row))
	}
	return (ids+1)/2 + uint64(len(r.slab))*uint64(len(chunk{}))
}
