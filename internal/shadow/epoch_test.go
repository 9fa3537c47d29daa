package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// epochReach is relReach plus a controllable EpochOrdered, standing in for
// an algorithm with the EpochConcurrent capability. The epoch function is
// deliberately independent of rel so tests can probe the shadow layer's
// contract in isolation: the layer must trust a true answer (skip the
// writer query) and fall back to the full protocol on false.
type epochReach struct {
	relReach
	epoch      func(r, s core.StrandID) bool
	epochCalls int64
}

func (e *epochReach) EpochOrdered(r, s core.StrandID) bool {
	e.epochCalls++
	return e.epoch(r, s)
}

// epochCtxFor builds a Ctx whose Reach and Epoch are one epochReach.
func epochCtxFor(rel, epoch func(u, v core.StrandID) bool, sink *[]raceEvent) (*Ctx, *epochReach) {
	er := &epochReach{relReach: relReach{rel: rel}, epoch: epoch}
	ctx := &Ctx{Reach: er, Epoch: er}
	ctx.OnReadRace = func(addr uint64, r Racer, _ core.StrandID) {
		*sink = append(*sink, raceEvent{Addr: addr, Racer: r})
	}
	ctx.OnWriteRace = func(addr uint64, r Racer, _ core.StrandID) {
		*sink = append(*sink, raceEvent{Addr: addr, Racer: r, Write: true})
	}
	return ctx, er
}

// TestEpochTransferSkipsWriterQuery: a second reader of stamped words
// makes zero writer queries when EpochOrdered transfers the stamp's
// verdict — across a generation bump — and still appends itself, so a
// later parallel writer races against the correct reader.
func TestEpochTransferSkipsWriterQuery(t *testing.T) {
	const n = 64
	h := NewHistory()
	var races []raceEvent
	ctx, er := epochCtxFor(seqRel(1), func(r, s core.StrandID) bool {
		return r == 5 && s == 9
	}, &races)
	h.WriteRange(1, n, 1, ctx)
	ctx.Gen = 2
	h.ReadRange(1, n, 5, ctx) // proves writer 1 ≺ 5, stamps 5
	q1 := er.queries
	ctx.Gen = 3
	h.ReadRange(1, n, 9, ctx) // stamp transfer: 5's verdict serves 9
	if q := er.queries; q != q1 {
		t.Fatalf("epoch-transferred read made %d writer queries, want 0", q-q1)
	}
	if got := h.Stats().EpochHits; got != n {
		t.Fatalf("EpochHits = %d, want %d", got, n)
	}
	if n := er.epochCalls; n != 1 {
		t.Fatalf("EpochOrdered called %d times, want 1 (memoized per stamp holder)", n)
	}
	if len(races) != 0 {
		t.Fatalf("transferred reads raced: %v", races[0])
	}
	// Strand 10 is parallel with everything: its write must race against
	// reader 5 (the inline slot), proving the transferred read kept the
	// reference protocol's racer-identity state.
	h.WriteRange(1, 1, 10, ctx)
	if len(races) != 1 || races[0].Racer.Prev != 5 || races[0].Racer.PrevWrite {
		t.Fatalf("write over transferred words: races = %+v, want one read race against 5", races)
	}
}

// TestEpochTransferFallsBack: with EpochOrdered answering false, a second
// reader pays the full writer query — the stamp never masks the protocol.
func TestEpochTransferFallsBack(t *testing.T) {
	const n = 16
	h := NewHistory()
	var races []raceEvent
	ctx, er := epochCtxFor(seqRel(1), func(r, s core.StrandID) bool { return false }, &races)
	h.WriteRange(1, n, 1, ctx)
	ctx.Gen = 2
	h.ReadRange(1, n, 5, ctx)
	q1 := er.queries
	ctx.Gen = 3
	h.ReadRange(1, n, 9, ctx) // no transfer: full protocol
	if q := er.queries; q == q1 {
		t.Fatal("reader 9 made no writer queries despite EpochOrdered == false")
	}
	if got := h.Stats().EpochHits; got != 0 {
		t.Fatalf("EpochHits = %d, want 0", got)
	}
}

// TestEpochTransferNeverMasksRace: EpochOrdered is only consulted for the
// stamped reader; a racing writer still reports. The stamp holder's
// verdict was against the word's writer — after a new parallel write
// installs, the stamp is gone and the next read races.
func TestEpochTransferNeverMasksRace(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	// Everything transfers; only writer 1 is ordered before anyone.
	ctx, _ := epochCtxFor(seqRel(1), func(r, s core.StrandID) bool { return true }, &races)
	h.WriteRange(1, 8, 1, ctx)
	ctx.Gen = 2
	h.ReadRange(1, 8, 5, ctx) // race-free, stamps 5
	h.WriteRange(1, 8, 10, ctx)
	if len(races) != 8 {
		t.Fatalf("parallel write over stamped words reported %d races, want 8", len(races))
	}
	races = races[:0]
	ctx.Gen = 3
	h.ReadRange(1, 8, 5, ctx) // stamp died with the write; 10 ∥ 5 races
	if len(races) != 8 {
		t.Fatalf("re-read after install reported %d races, want 8 (stale stamp transferred)",
			len(races))
	}
}

// TestEpochInflateDeflate pins the read-state machine's transitions and
// counters: a second distinct reader inflates (arena slot taken), a write
// install deflates, and the next single reader re-enters the inline state
// with no residual spill entries.
func TestEpochInflateDeflate(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(1, 5, 9, 12), &races)
	h.WriteRange(1, 4, 1, ctx)
	ctx.Gen = 2
	h.ReadRange(1, 4, 5, ctx) // single-reader state
	st := h.Stats()
	if st.EpochInflations != 0 || st.SpillEntries != 0 {
		t.Fatalf("single reader inflated: %+v", st)
	}
	h.ReadRange(1, 4, 9, ctx) // contention: inflate
	st = h.Stats()
	if st.EpochInflations != 4 || st.SpillEntries != 4 {
		t.Fatalf("after second reader: inflations = %d, spill = %d, want 4, 4",
			st.EpochInflations, st.SpillEntries)
	}
	h.WriteRange(1, 4, 12, ctx) // ordered write: deflate
	st = h.Stats()
	if st.EpochDeflations != 4 || st.SpillEntries != 0 {
		t.Fatalf("after write install: deflations = %d, spill = %d, want 4, 0",
			st.EpochDeflations, st.SpillEntries)
	}
	ctx.Gen = 3
	h.ReadRange(1, 4, 5, ctx) // back to single-reader, no re-inflation
	st = h.Stats()
	if st.EpochInflations != 4 || st.SpillEntries != 0 {
		t.Fatalf("post-deflation reader re-inflated: %+v", st)
	}
	if len(races) != 0 {
		t.Fatalf("ordered cycle raced: %v", races[0])
	}
}

// TestEpochNilCapability: without an EpochConcurrent (plain relReach), a
// different reader's stamp is never consulted — the full protocol runs.
func TestEpochNilCapability(t *testing.T) {
	const n = 8
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(1), &races)
	h.WriteRange(1, n, 1, ctx)
	ctx.Gen = 2
	h.ReadRange(1, n, 5, ctx)
	q1 := ctx.Reach.(*relReach).queries
	ctx.Gen = 3
	h.ReadRange(1, n, 9, ctx)
	if q := ctx.Reach.(*relReach).queries; q == q1 {
		t.Fatal("nil Epoch capability still skipped the writer query")
	}
	if got := h.Stats().EpochHits; got != 0 {
		t.Fatalf("EpochHits = %d with nil capability, want 0", got)
	}
}
