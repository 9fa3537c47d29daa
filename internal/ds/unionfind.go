// Package ds provides the low-level data structures shared by the race
// detection algorithms: Tarjan's fast disjoint-set structure and growable
// bit vectors used for the transitive closure of the attached-set DAG.
package ds

import "sync/atomic"

// UnionFind is a disjoint-set forest over dense uint32 element ids with
// union by rank and path compression (Tarjan 1975). All operations run in
// amortized O(α(m,n)) time, the bound the paper's Theorems 4.1 and 5.1
// rely on.
//
// Elements must be added with MakeSet before use. The structure grows on
// demand; ids need not be contiguous but dense ids keep memory tight.
//
// # Concurrency
//
// One writer (the detection applier) may run MakeSet, Find and Union while
// any number of readers run FindRO concurrently. All parent-pointer
// accesses on both sides are atomic, and the parent array is published
// copy-on-write through an atomic header, so a grow never tears a
// concurrent reader: a reader that loaded the previous snapshot finishes
// its find on a consistent (slightly stale) forest. The rank, presence
// and counter bookkeeping stay writer-private.
type UnionFind struct {
	parent []uint32                 // writer-side backing; elements accessed atomically
	phdr   atomic.Pointer[[]uint32] // published header for concurrent FindRO readers
	rank   []uint8
	// present[i] reports whether MakeSet(i) has been called. Kept as a
	// bitset so accidental use of an unregistered element is caught in
	// tests rather than silently unioning garbage.
	present BitVec

	sets   int
	finds  uint64 // atomic: Find (writer) and FindRO (readers) both count
	unions uint64
}

// NewUnionFind returns an empty structure with capacity hint n.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{}
	if n < 1 {
		n = 1
	}
	u.grow(n)
	return u
}

func (u *UnionFind) grow(n int) {
	if n <= len(u.parent) {
		return
	}
	if c := 2 * len(u.parent); n < c {
		n = c
	}
	p := make([]uint32, n)
	// Copy with atomic loads: concurrent FindRO readers compress paths in
	// the old backing with CAS, and a plain copy would race with them. A
	// compression lost to the copy is harmless — it only repoints an
	// element at its grandparent, both members of the same set.
	for i := range u.parent {
		p[i] = atomic.LoadUint32(&u.parent[i])
	}
	r := make([]uint8, n)
	copy(r, u.rank)
	u.parent, u.rank = p, r
	u.phdr.Store(&p)
}

// MakeSet registers x as a singleton set. Registering an existing element
// is a no-op, so callers may use it to "ensure" an element. Writer side;
// safe under live FindRO readers (fresh elements are unreachable from any
// set a reader can name).
func (u *UnionFind) MakeSet(x uint32) {
	u.grow(int(x) + 1)
	if u.present.Has(x) {
		return
	}
	u.present.Set(x)
	atomic.StoreUint32(&u.parent[x], x)
	u.rank[x] = 0
	u.sets++
}

// Contains reports whether MakeSet(x) has been called.
func (u *UnionFind) Contains(x uint32) bool { return u.present.Has(x) }

// Find returns the canonical representative of the set containing x,
// compressing the path as it goes. Writer side; parent accesses are atomic
// so concurrent FindRO readers observe only fully-written pointers.
func (u *UnionFind) Find(x uint32) uint32 {
	atomic.AddUint64(&u.finds, 1)
	// Iterative two-pass path compression: find the root, then repoint.
	root := x
	for {
		p := atomic.LoadUint32(&u.parent[root])
		if p == root {
			break
		}
		root = p
	}
	for x != root {
		next := atomic.LoadUint32(&u.parent[x])
		atomic.StoreUint32(&u.parent[x], root)
		x = next
	}
	return root
}

// Union merges the sets containing a and b and returns the new root.
// If they are already in the same set, the common root is returned.
// Which of the two old roots becomes the new root is decided by rank;
// callers that attach per-root payloads must fix the payload up after
// Union (see the reach package).
func (u *UnionFind) Union(a, b uint32) uint32 {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	u.unions++
	u.sets--
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	atomic.StoreUint32(&u.parent[rb], ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return ra
}

// FindRO returns the canonical representative of the set containing x
// without requiring exclusive access: it is safe to call from any number
// of goroutines concurrently, including while the single writer applies
// fold-free mutations (MakeSet on fresh elements, Union between existing
// sets under the scheduler's exclusion rules).
//
// The read path snapshots the published parent array once and uses atomic
// loads; path compression is done by halving with compare-and-swap, so
// concurrent finds can still shorten paths without losing updates. Each
// CAS repoints parent[x] from its parent to its grandparent — both members
// of the same set — so any interleaving preserves the partition, and the
// amortized bound is the same as the serial two-pass compression (Tarjan &
// van Leeuwen 1984, one-pass halving variant).
func (u *UnionFind) FindRO(x uint32) uint32 {
	atomic.AddUint64(&u.finds, 1)
	parent := *u.phdr.Load()
	for {
		p := atomic.LoadUint32(&parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadUint32(&parent[p])
		if gp == p {
			return p
		}
		// Halve: repoint x past its parent. A lost race just means another
		// find compressed first; either way progress is made via x = gp.
		atomic.CompareAndSwapUint32(&parent[x], p, gp)
		x = gp
	}
}

// SameSet reports whether a and b are currently in the same set.
func (u *UnionFind) SameSet(a, b uint32) bool { return u.Find(a) == u.Find(b) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Ops returns the number of Find and Union operations performed, used by
// the benchmark harness to report data-structure traffic.
func (u *UnionFind) Ops() (finds, unions uint64) {
	return atomic.LoadUint64(&u.finds), u.unions
}
