package core

import (
	"sync/atomic"

	"futurerd/internal/ds"
)

// SPBags is the classic SP-Bags algorithm (Feng & Leiserson 1997) for
// series-parallel (fork-join only) programs. It is included as the
// baseline the paper builds on, and to demonstrate in tests that it is
// unsound for programs with futures — it misses races MultiBags finds —
// which is the paper's motivation.
//
// Bag rules (for a depth-first execution):
//
//	F is spawned or called:   S_F = {F}, P_F = ∅
//	F spawns G; G returns:    P_F = Union(P_F, S_G)
//	F syncs:                  S_F = Union(S_F, P_F); P_F = ∅
//
// Contrast with MultiBags: SP-Bags moves a returning child's bag into the
// parent's P-bag immediately, and a sync folds the whole P-bag into S_F.
// MultiBags instead retags the child's own bag P and folds it in only when
// its future is joined. For pure fork-join programs the two coincide; with
// futures, SP-Bags wrongly "serializes" a future at the next sync even
// though no get_fut joined it.
//
// For programs that use futures, SPBags treats create_fut like spawn and
// get_fut like a sync in the getting function — a deliberate, unsound
// approximation of running a fork-join detector on a future program.
type SPBags struct {
	st *StrandTable
	uf *ds.UnionFind
	// tag is per element, authoritative at roots. Published (ds.PubSlice)
	// so concurrent Precedes readers index a consistent snapshot.
	tag ds.PubSlice[byte]

	// anchor[f] is the element created when f started; it stays a valid
	// member of whatever set f's strands currently occupy, so Precedes
	// can always start its Find there (published, same regime as tag).
	// pElem[f] is any element of f's current P-bag, or noElem when the
	// P-bag is empty — applier-private, never read by queries.
	anchor ds.PubSlice[uint32]
	pElem  []uint32

	next    uint32
	queries uint64
	fns     uint64
}

const noElem = ^uint32(0)

// NewSPBags returns an SPBags instance sharing the engine's strand table.
func NewSPBags(st *StrandTable) *SPBags {
	return &SPBags{st: st, uf: ds.NewUnionFind(64)}
}

// Name implements Reach.
func (m *SPBags) Name() string { return "spbags" }

func (m *SPBags) ensureFn(f FnID) {
	if int(f) < len(m.pElem) {
		return
	}
	old := m.anchor.Len()
	m.anchor.Grow(int(f) + 1)
	w := m.anchor.W()
	for i := old; i < len(w); i++ {
		w[i] = noElem
	}
	for int(f) >= len(m.pElem) {
		m.pElem = append(m.pElem, noElem)
	}
}

func (m *SPBags) newElem(t byte) uint32 {
	e := m.next
	m.next++
	m.uf.MakeSet(e)
	m.tag.Grow(int(e) + 1)
	m.tag.W()[e] = t
	return e
}

func (m *SPBags) enterFn(f FnID) {
	m.ensureFn(f)
	m.anchor.W()[f] = m.newElem(tagS)
	m.pElem[f] = noElem
	m.fns++
}

// Init implements Reach.
func (m *SPBags) Init(mainFn FnID, _ StrandID) { m.enterFn(mainFn) }

// Spawn implements Reach.
func (m *SPBags) Spawn(r SpawnRec) { m.enterFn(r.ChildFn) }

// CreateFut implements Reach: approximated as a spawn.
func (m *SPBags) CreateFut(r CreateRec) { m.enterFn(r.FutFn) }

// Return implements Reach: P_parent = Union(P_parent, S_child).
//
// The child's root is tagged P *before* any union. The parent's existing
// P-bag root is never re-tagged: it is already P by the pElem invariant.
func (m *SPBags) Return(r ReturnRec) {
	if r.ParentFn == NoFn {
		return // main returning; nothing joins it
	}
	m.ensureFn(r.ParentFn)
	m.ensureFn(r.Fn)
	child := m.anchor.W()[r.Fn]
	croot := m.uf.Find(child)
	m.tag.W()[croot] = tagP
	if p := m.pElem[r.ParentFn]; p == noElem {
		m.pElem[r.ParentFn] = child
	} else {
		m.pElem[r.ParentFn] = m.uf.Union(p, croot)
	}
}

// SyncJoin implements Reach: S_F = Union(S_F, P_F); P_F = ∅. The engine
// reports one binary join per child; the first one folds the whole P-bag,
// the rest are no-ops, matching the single-union semantics of sync.
func (m *SPBags) SyncJoin(r JoinRec) { m.foldP(r.Fn) }

// GetFut implements Reach: approximated as a sync in the getting function.
func (m *SPBags) GetFut(r GetRec) { m.foldP(r.Fn) }

func (m *SPBags) foldP(f FnID) {
	m.ensureFn(f)
	p := m.pElem[f]
	if p == noElem {
		return
	}
	root := m.uf.Union(m.anchor.W()[f], p)
	m.tag.W()[root] = tagS
	m.pElem[f] = noElem
}

// Precedes implements Reach. Safe for concurrent use between constructs
// (CAS-compressed find on the published parent snapshot, atomic counter,
// tag/anchor read through published snapshots).
func (m *SPBags) Precedes(u, _ StrandID) bool {
	atomic.AddUint64(&m.queries, 1)
	f := m.st.FnOf(u)
	root := m.uf.FindRO(m.anchor.RO()[f])
	return m.tag.RO()[root] == tagS
}

// ConcurrentPrecedesSafe implements QueryConcurrent.
func (m *SPBags) ConcurrentPrecedesSafe() bool { return true }

// EpochOrdered implements EpochConcurrent: same-function stamps transfer.
// If r and s belong to the same function instance F and r executed first
// (strand ids within one function are allocated in execution order), then
// between r's read and s's read execution stayed inside F's subtree — F
// cannot return and resume. SP-Bags sets only ever gain members that have
// already returned (a child's S-bag moves into the parent's P-bag at the
// child's return, and P-bags fold into S-bags at the live parent's
// sync/get, retagging S), so a set that was S-tagged at r's read cannot be
// retagged P before s's read: the only S→P transition is Return, and every
// member that could still return is a live ancestor of F. SP-Bags' verdict
// for the word's writer therefore cannot have flipped — on any program,
// futures included.
func (m *SPBags) EpochOrdered(u, v StrandID) bool {
	return u != NoStrand && u < v && m.st.FnOf(u) == m.st.FnOf(v)
}

// Stats implements Reach.
func (m *SPBags) Stats() ReachStats {
	f, un := m.uf.Ops()
	return ReachStats{
		Finds: f, Unions: un, Queries: m.queries,
		StrandsSeen:   uint64(m.st.Len()),
		FunctionsSeen: m.fns,
	}
}
