package core

import (
	"sync/atomic"

	"futurerd/internal/ds"
)

// Bag tags. A function instance's bag is either an S-bag (its strands are
// sequentially before the currently executing strand) or a P-bag (they are
// logically parallel with it) — Theorem 4.2.
const (
	tagS = byte(0) // S-bag
	tagP = byte(1) // P-bag
)

// MultiBags is the paper's §4 algorithm for programs with structured
// futures (single-touch handles, creator sequentially before getter).
//
// It maintains one disjoint-set structure whose elements are function
// instances. All strands of a function instance F always occupy the same
// bag, so tracking bags per function is equivalent to the paper's
// per-strand presentation and is how SP-Bags implementations work too.
//
// The bag life cycle (Figure 1):
//
//	F calls f = create_fut(G):  S_G = Make-Set(G)          (tag S)
//	G returns to F:             P_G = S_G                   (retag P)
//	F calls get_fut(f):         S_F = Union(S_F, P_G)       (result tag S)
//
// spawn is treated exactly like create_fut and each binary sync join like
// a get_fut on the joined child (§4 "Notation": spawn and sync are
// subsumed by create_fut and get_fut for structured programs).
type MultiBags struct {
	st *StrandTable
	uf *ds.UnionFind
	// tag is per function id, authoritative only at set roots. Published
	// (ds.PubSlice) so concurrent Precedes readers index a consistent
	// snapshot.
	tag ds.PubSlice[byte]

	queries uint64
	fns     uint64
}

// NewMultiBags returns a MultiBags instance sharing the engine's strand
// table.
func NewMultiBags(st *StrandTable) *MultiBags {
	m := &MultiBags{st: st, uf: ds.NewUnionFind(64)}
	m.tag.Grow(64)
	return m
}

// Name implements Reach.
func (m *MultiBags) Name() string { return "multibags" }

// makeSBag creates S_F = {F}.
func (m *MultiBags) makeSBag(f FnID) {
	m.tag.Grow(int(f) + 1)
	m.uf.MakeSet(uint32(f))
	m.tag.W()[f] = tagS
	m.fns++
}

// Init implements Reach.
func (m *MultiBags) Init(mainFn FnID, _ StrandID) { m.makeSBag(mainFn) }

// Spawn implements Reach: like create_fut, the child gets a fresh S-bag.
func (m *MultiBags) Spawn(r SpawnRec) { m.makeSBag(r.ChildFn) }

// CreateFut implements Reach (Figure 1 line 1).
func (m *MultiBags) CreateFut(r CreateRec) { m.makeSBag(r.FutFn) }

// Return implements Reach (Figure 1 line 2): P_G = S_G. This retagging —
// rather than SP-Bags' union into the parent's P-bag — is the algorithm's
// crucial difference from SP-Bags.
func (m *MultiBags) Return(r ReturnRec) {
	root := m.uf.Find(uint32(r.Fn))
	m.tag.W()[root] = tagP
}

// SyncJoin implements Reach: joining a spawned child is a get_fut on it.
func (m *MultiBags) SyncJoin(r JoinRec) { m.join(r.Fn, r.ChildFn) }

// GetFut implements Reach (Figure 1 line 3): S_F = Union(S_F, P_G).
func (m *MultiBags) GetFut(r GetRec) { m.join(r.Fn, r.FutFn) }

func (m *MultiBags) join(parent, child FnID) {
	root := m.uf.Union(uint32(parent), uint32(child))
	m.tag.W()[root] = tagS
}

// Precedes implements Reach (Figure 1, Query): u ≺ v iff u's function is
// currently in an S-bag. Safe for concurrent use between constructs: the
// union-find read uses CAS-compressed FindRO on the published parent
// snapshot, the tag array is read through a published snapshot, and the
// query counter is atomic.
func (m *MultiBags) Precedes(u, _ StrandID) bool {
	atomic.AddUint64(&m.queries, 1)
	root := m.uf.FindRO(uint32(m.st.FnOf(u)))
	return m.tag.RO()[root] == tagS
}

// ConcurrentPrecedesSafe implements QueryConcurrent.
func (m *MultiBags) ConcurrentPrecedesSafe() bool { return true }

// EpochOrdered implements EpochConcurrent with two arms. Same-function
// stamps transfer: strand ids within one function instance are allocated
// in execution order, so u < v with FnOf(u) == FnOf(v) means u ≺ v
// through the function's own continuation chain. Otherwise the bag check
// itself — u's function currently in an S-bag — is the Precedes answer
// for the running strand, taken without the query counter (the shadow
// layer memoizes one EpochOrdered per stamp holder per window, where the
// full protocol would pay one writer query per stamp-boundary).
//
// Soundness in both arms: on structured programs MultiBags is exact
// (Theorem 4.2), so the stamped verdict Precedes(w, u) == true means
// w ≺ u in the dag; u ≺ v and transitivity give w ≺ v, and — again by
// exactness — Precedes(w, v) == true now. Outside the structured
// discipline MultiBags' answers carry no guarantee to begin with (a
// multi-touch get can fold an S-set that a late-joining getter's return
// then retags P), so the epoch inherits exactly the algorithm's documented
// program class.
func (m *MultiBags) EpochOrdered(u, v StrandID) bool {
	if u == NoStrand {
		return false
	}
	if u < v && m.st.FnOf(u) == m.st.FnOf(v) {
		return true
	}
	root := m.uf.FindRO(uint32(m.st.FnOf(u)))
	return m.tag.RO()[root] == tagS
}

// Stats implements Reach.
func (m *MultiBags) Stats() ReachStats {
	f, un := m.uf.Ops()
	return ReachStats{
		Finds: f, Unions: un, Queries: m.queries,
		StrandsSeen:   uint64(m.st.Len()),
		FunctionsSeen: m.fns,
	}
}
