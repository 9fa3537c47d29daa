package core

import (
	"fmt"
	"sync/atomic"

	"futurerd/internal/ds"
)

// MultiBagsPlus is the paper's §5 algorithm for general futures
// (multi-touch handles, handles escaping through memory or return values).
//
// It maintains three structures:
//
//   - DSP: the MultiBags bags over SP edges only. spawn and create_fut
//     make fresh S-bags, return retags to P, sync unions the child's P-bag
//     into the parent's S-bag, and — unlike MultiBags — get_fut does
//     nothing (futures may be multi-touch).
//   - DNSP: a disjoint-set structure over strands partitioned into
//     attached sets (present in R) and unattached sets (complete SP
//     subdags with no incident non-SP edges, carrying attached-predecessor
//     and attached-successor proxies).
//   - R: a dag over attached sets with an explicit transitive closure
//     (rdag), answering cross-SP-dag reachability in O(1).
//
// The event handlers below implement Figure 4 line by line; Precedes
// implements Figure 3.
type MultiBagsPlus struct {
	st  *StrandTable
	dsp *MultiBags
	nsp *ds.UnionFind
	r   rdag

	// Per-strand payloads, authoritative at DNSP roots only.
	// att is the R-node id of an attached set, or -1 for unattached.
	// attPred/attSucc are R-node ids; attSucc may be -1 ("null").
	// Published (ds.PubSlice) so concurrent Precedes readers index a
	// consistent snapshot.
	att     ds.PubSlice[int32]
	attPred ds.PubSlice[int32]
	attSucc ds.PubSlice[int32]

	attachedSets uint64
	queries      uint64
	syncNeither  uint64
	syncBoth     uint64
	syncMixed    uint64

	// Debug invariant checking (enabled in tests): any violation of the
	// paper's structural guarantees is recorded here.
	CheckInvariants bool
	Violations      []string
}

const noRNode = int32(-1)

// NewMultiBagsPlus returns a MultiBagsPlus instance sharing the engine's
// strand table.
func NewMultiBagsPlus(st *StrandTable) *MultiBagsPlus {
	return &MultiBagsPlus{
		st:  st,
		dsp: NewMultiBags(st),
		nsp: ds.NewUnionFind(64),
	}
}

// Name implements Reach.
func (m *MultiBagsPlus) Name() string { return "multibags+" }

func (m *MultiBagsPlus) ensure(s StrandID) {
	n := int(s) + 1
	if n <= m.att.Len() {
		return
	}
	old := m.att.Len()
	m.att.Grow(n)
	m.attPred.Grow(n)
	m.attSucc.Grow(n)
	a, p, su := m.att.W(), m.attPred.W(), m.attSucc.W()
	for i := old; i < len(a); i++ {
		a[i], p[i], su[i] = noRNode, noRNode, noRNode
	}
}

// makeUnattached registers strand s as a fresh unattached singleton whose
// attached predecessor is the R node pred.
func (m *MultiBagsPlus) makeUnattached(s StrandID, pred int32) {
	m.ensure(s)
	m.nsp.MakeSet(uint32(s))
	m.att.W()[s] = noRNode
	m.attPred.W()[s] = pred
	m.attSucc.W()[s] = noRNode
}

// makeAttached registers strand s as a fresh attached singleton and
// returns its R node. No arc is added; callers add the incoming arcs.
func (m *MultiBagsPlus) makeAttached(s StrandID) int32 {
	m.ensure(s)
	m.nsp.MakeSet(uint32(s))
	rn := m.r.addNode()
	m.att.W()[s] = rn
	m.attPred.W()[s] = rn // an attached set is its own attached predecessor
	m.attSucc.W()[s] = rn // ... and successor
	m.attachedSets++
	return rn
}

// makeRaw registers s as a bare singleton about to be absorbed by a union;
// its payload is never consulted.
func (m *MultiBagsPlus) makeRaw(s StrandID) {
	m.ensure(s)
	m.nsp.MakeSet(uint32(s))
	m.att.W()[s] = noRNode
	m.attPred.W()[s] = noRNode
	m.attSucc.W()[s] = noRNode
}

// predOf returns the attached predecessor (an R node) of the set
// containing s: the set's own R node if attached, its attPred proxy
// otherwise.
func (m *MultiBagsPlus) predOf(s StrandID) int32 {
	root := m.nsp.Find(uint32(s))
	if a := m.att.W()[root]; a != noRNode {
		return a
	}
	return m.attPred.W()[root]
}

// attachify implements Figure 4 lines 18–22: convert the set containing u
// into an attached set, wiring it under its attached predecessor.
func (m *MultiBagsPlus) attachify(u StrandID) {
	root := m.nsp.Find(uint32(u))
	if m.att.W()[root] != noRNode {
		return
	}
	rn := m.r.addNode()
	m.r.addArc(m.attPred.W()[root], rn)
	m.att.W()[root] = rn
	m.attachedSets++
}

// rnodeOf returns the R node of the set containing s, attaching the set
// first if necessary. The algorithm only calls this where the set is
// guaranteed attached; attaching defensively keeps the detector sound if
// that guarantee were ever violated, and the violation is recorded for
// the invariant tests.
func (m *MultiBagsPlus) rnodeOf(s StrandID, site string) int32 {
	root := m.nsp.Find(uint32(s))
	if m.att.W()[root] == noRNode {
		if m.CheckInvariants {
			m.Violations = append(m.Violations,
				fmt.Sprintf("%s: set of strand %d expected attached", site, s))
		}
		m.attachify(s)
		root = m.nsp.Find(uint32(s))
	}
	return m.att.W()[root]
}

// unionKeep unions the set containing other into the set containing keep,
// preserving keep's root payload (the paper's Union(D, A, B) semantics:
// "unions the set B into A").
func (m *MultiBagsPlus) unionKeep(keep, other StrandID) {
	rk := m.nsp.Find(uint32(keep))
	a, ap, as := m.att.W()[rk], m.attPred.W()[rk], m.attSucc.W()[rk]
	root := m.nsp.Union(uint32(keep), uint32(other))
	m.att.W()[root], m.attPred.W()[root], m.attSucc.W()[root] = a, ap, as
}

// Init implements Reach (Figure 4 line 1): the first strand goes into an
// attached set with no predecessor.
func (m *MultiBagsPlus) Init(mainFn FnID, mainStrand StrandID) {
	m.dsp.Init(mainFn, mainStrand)
	m.makeAttached(mainStrand)
}

// Spawn implements Reach (Figure 4 lines 2–6).
func (m *MultiBagsPlus) Spawn(r SpawnRec) {
	m.dsp.Spawn(r) // line 2: S_G = Make-Set(DSP, w)
	pred := m.predOf(r.Fork)
	m.makeUnattached(r.ContFirst, pred)  // lines 3–4
	m.makeUnattached(r.ChildFirst, pred) // lines 5–6
}

// CreateFut implements Reach (Figure 4 lines 7–12).
func (m *MultiBagsPlus) CreateFut(r CreateRec) {
	m.dsp.CreateFut(r)     // line 7
	m.attachify(r.Creator) // line 8
	cu := m.rnodeOf(r.Creator, "create_fut")
	av := m.makeAttached(r.ContFirst) // line 9
	m.r.addArc(cu, av)                // line 10
	aw := m.makeAttached(r.FutFirst)  // line 11
	m.r.addArc(cu, aw)                // line 12
}

// Return implements Reach (Figure 4 line 13): P_G = S_G in DSP; DNSP and R
// are untouched.
func (m *MultiBagsPlus) Return(r ReturnRec) { m.dsp.Return(r) }

// GetFut implements Reach (Figure 4 lines 14–17). Note no DSP action: the
// SP bags only track SP edges, allowing multi-touch futures.
func (m *MultiBagsPlus) GetFut(r GetRec) {
	m.attachify(r.Getter)                        // line 14
	av := m.makeAttached(r.Cont)                 // line 15
	m.r.addArc(m.rnodeOf(r.Getter, "get/u"), av) // line 16
	// line 17; Find(DNSP, w) is guaranteed attached because every
	// function's last strand lands in an attached set (its first strand's
	// set, or a post-sync/post-get strand — see the engine's implicit
	// sync at returns).
	m.r.addArc(m.rnodeOf(r.FutLast, "get/w"), av)
}

// SyncJoin implements Reach (Figure 4 lines 23–46) for one binary join.
func (m *MultiBagsPlus) SyncJoin(r JoinRec) {
	m.dsp.SyncJoin(r) // line 23: S_F = Union(DSP, S_F, P_G)

	f, s1, s2 := r.Fork, r.ChildFirst, r.ContFirst
	t1, t2, j := r.ChildLast, r.ContLast, r.Join
	rt1 := m.nsp.Find(uint32(t1))
	rt2 := m.nsp.Find(uint32(t2))
	a1 := m.att.W()[rt1] != noRNode
	a2 := m.att.W()[rt2] != noRNode

	switch {
	case !a1 && !a2:
		m.syncNeither++
		// lines 29–32: no non-SP edges in either branch; the whole
		// parallel composition collapses into f's set.
		m.unionKeep(f, t1)
		m.unionKeep(f, t2)
		m.makeRaw(j)
		m.unionKeep(f, j)

	case a1 && a2:
		m.syncBoth++
		// lines 33–40: both branches have non-SP edges.
		m.attachify(f)
		rf := m.rnodeOf(f, "sync/f")
		m.r.addArc(rf, m.rnodeOf(s1, "sync/s1"))          // line 35
		m.r.addArc(rf, m.rnodeOf(s2, "sync/s2"))          // line 36
		aj := m.makeAttached(j)                           // lines 37–38
		m.r.addArc(m.att.W()[m.nsp.Find(uint32(t1))], aj) // line 39
		m.r.addArc(m.att.W()[m.nsp.Find(uint32(t2))], aj) // line 40

	default:
		m.syncMixed++
		// lines 41–46: exactly one branch has non-SP edges.
		var ta, sa, tu StrandID
		if a1 {
			ta, sa, tu = t1, s1, t2
		} else {
			ta, sa, tu = t2, s2, t1
		}
		if m.att.W()[m.nsp.Find(uint32(f))] == noRNode {
			m.unionKeep(sa, f) // lines 43–44
		}
		m.makeRaw(j)
		m.unionKeep(ta, j) // line 45
		// line 46: Find(tu).attSucc = Find(j), which is ta's attached set.
		rtu := m.nsp.Find(uint32(tu))
		m.attSucc.W()[rtu] = m.rnodeOf(j, "sync/j")
	}
}

// Precedes implements Reach (Figure 3): u ≺ v in Gfull iff either DSP says
// u's function is in an S-bag, or the (possibly proxied) attached sets of
// u and v are ordered in R.
//
// Safe for concurrent use between constructs: both disjoint-set reads go
// through CAS-compressed FindRO on published parent snapshots, the
// per-strand payload arrays are read through published snapshots, and the
// counters are atomic.
func (m *MultiBagsPlus) Precedes(u, v StrandID) bool {
	atomic.AddUint64(&m.queries, 1)
	return m.ordered(u, v)
}

// ordered is the body of Precedes without the query counter: shared by
// Precedes and by EpochOrdered's last arm, which answers from the same
// structures but stands in for queries rather than being one.
func (m *MultiBagsPlus) ordered(u, v StrandID) bool {
	root := m.dsp.uf.FindRO(uint32(m.st.FnOf(u)))
	if m.dsp.tag.RO()[root] == tagS { // lines 1–2
		return true
	}
	att, attPred, attSucc := m.att.RO(), m.attPred.RO(), m.attSucc.RO()
	rv := m.nsp.FindRO(uint32(v))
	sv := att[rv]
	vProxied := false
	if sv == noRNode { // lines 4–5
		sv = attPred[rv]
		vProxied = true
	}
	ru := m.nsp.FindRO(uint32(u))
	su := att[ru]
	uProxied := false
	if su == noRNode { // lines 7–9
		su = attSucc[ru]
		uProxied = true
		if su == noRNode {
			return false
		}
	}
	if su == sv {
		// Proxy coincidence. If either side was proxied, Lemmas A.8/A.10
		// force u ≺ v (the proxy set's nodes separate them). If neither
		// was proxied, u and v sit in the same attached set; any ordering
		// between them is series-parallel and DSP already said no.
		return uProxied || vProxied
	}
	return m.r.reaches(su, sv) // line 10
}

// ConcurrentPrecedesSafe implements QueryConcurrent.
func (m *MultiBagsPlus) ConcurrentPrecedesSafe() bool { return true }

// EpochOrdered implements EpochConcurrent. MultiBags+ is exact on every
// forward-pointing program (Theorem 5.4), so any sufficient condition for
// u ≺ v in the dag gives verdict transfer: the stamped Precedes(w, u) ==
// true means w ≺ u, monotonicity gives w ≺ v, and exactness turns that
// back into Precedes(w, v) == true. The first arm is free: u and v being
// strands of the same function instance with u allocated first means they
// are ordered through the function's own continuation chain. Otherwise
// the full Precedes answer (DSP tag, then R-closure) decides — taken
// without the query counter, because the shadow layer memoizes one
// EpochOrdered per stamp holder per window where the reference protocol
// would pay one writer query per stamp-boundary.
func (m *MultiBagsPlus) EpochOrdered(u, v StrandID) bool {
	if u == NoStrand {
		return false
	}
	if u < v && m.st.FnOf(u) == m.st.FnOf(v) {
		return true
	}
	return m.ordered(u, v)
}

// Stats implements Reach.
func (m *MultiBagsPlus) Stats() ReachStats {
	f1, u1 := m.dsp.uf.Ops()
	f2, u2 := m.nsp.Ops()
	return ReachStats{
		Finds:         f1 + f2,
		Unions:        u1 + u2,
		Queries:       m.queries,
		AttachedSets:  m.attachedSets,
		RArcs:         m.r.arcs,
		RCloseWords:   m.r.closureWords(),
		StrandsSeen:   uint64(m.st.Len()),
		FunctionsSeen: m.dsp.fns,
		SyncNeither:   m.syncNeither,
		SyncBoth:      m.syncBoth,
		SyncMixed:     m.syncMixed,
	}
}
