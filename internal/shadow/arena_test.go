package shadow

import (
	"fmt"
	"testing"

	"futurerd/internal/core"
)

// rangeOps runs a test body against the range path (ReadRange and
// WriteRange) as the "serial" subtest.
func rangeOps(t *testing.T, body func(t *testing.T, read, write func(h *History, addr uint64, n int, s core.StrandID, ctx *Ctx))) {
	t.Run("serial", func(t *testing.T) {
		body(t,
			func(h *History, addr uint64, n int, s core.StrandID, ctx *Ctx) { h.ReadRange(addr, n, s, ctx) },
			func(h *History, addr uint64, n int, s core.StrandID, ctx *Ctx) { h.WriteRange(addr, n, s, ctx) })
	})
}

// TestArenaSlotReuseNoLeak drives many inflate → write-deflate cycles over
// distinct words, two blocks inflated at a time: the arena must stay
// bounded by that peak (deflated slots are reused, not abandoned), and the
// live spill count must drop back to zero once every block deflates.
func TestArenaSlotReuseNoLeak(t *testing.T) {
	const block, cycles = 64, 50
	rangeOps(t, func(t *testing.T, read, write func(*History, uint64, int, core.StrandID, *Ctx)) {
		h := NewHistory()
		var races []raceEvent
		ctx := ctxFor(func(u, v core.StrandID) bool { return true }, &races)
		inflate := func(i int) {
			base := uint64(1 + i*block)
			read(h, base, block, 2, ctx)
			read(h, base, block, 3, ctx) // second distinct reader: inflate
			read(h, base, block, 4, ctx)
		}
		deflate := func(i int) { write(h, uint64(1+i*block), block, 5, ctx) }
		for i := 0; i < cycles; i++ {
			inflate(i)
			if i > 0 {
				deflate(i - 1) // block i-1 and i were inflated together
			}
			if got := h.Stats().SpillEntries; got != 2*block {
				t.Fatalf("cycle %d: SpillEntries = %d, want %d", i, got, 2*block)
			}
		}
		deflate(cycles - 1)
		st := h.Stats()
		if st.SpillEntries != 0 {
			t.Fatalf("SpillEntries = %d after every word deflated, want 0", st.SpillEntries)
		}
		if st.EpochInflations != cycles*block || st.EpochDeflations != cycles*block {
			t.Fatalf("inflations = %d, deflations = %d, want %d each",
				st.EpochInflations, st.EpochDeflations, cycles*block)
		}
		if n := len(h.arena); n > 2*block {
			t.Fatalf("arena grew to %d slots; at most %d words were inflated at once", n, 2*block)
		}
		if len(h.free) != len(h.arena) {
			t.Fatalf("%d of %d arena slots free after every word deflated", len(h.free), len(h.arena))
		}
		if len(races) != 0 {
			t.Fatalf("ordered cycles raced: %v", races[0])
		}
	})
}

// TestArenaInlineReaderNamedFirst: once a word inflates, its former
// inline reader leads the slot and is checked first, so a write parallel
// only with that reader must name it, and so must a write parallel with
// every reader — including when the word inflated into a reused slot
// whose stale capacity still holds an earlier word's readers.
func TestArenaInlineReaderNamedFirst(t *testing.T) {
	const words = 32
	rels := map[string]func(u, v core.StrandID) bool{
		"inline-only": func(u, v core.StrandID) bool { return u != 2 },
		"all":         func(u, v core.StrandID) bool { return false },
	}
	rangeOps(t, func(t *testing.T, read, write func(*History, uint64, int, core.StrandID, *Ctx)) {
		for _, churn := range []bool{false, true} {
			for name, rel := range rels {
				t.Run(fmt.Sprintf("%s/churn=%v", name, churn), func(t *testing.T) {
					h := NewHistory()
					var races []raceEvent
					if churn {
						// Fill and free slots on other words, with readers that
						// would be misnamed if a stale slot tail were read.
						ctx := ctxFor(func(u, v core.StrandID) bool { return true }, &races)
						base := uint64(1 + 4*pageSize)
						for _, s := range []core.StrandID{7, 8, 9, 10} {
							read(h, base, words, s, ctx)
						}
						write(h, base, words, 11, ctx)
					}
					// Reader 2 is the inline one; the words have no writer yet,
					// so no read races whatever the relation.
					ctx := ctxFor(rel, &races)
					for _, s := range []core.StrandID{2, 3, 4, 5} {
						read(h, 1, words, s, ctx)
					}
					if got := h.Stats().EpochInflations; churn && got != 2*words || !churn && got != words {
						t.Fatalf("EpochInflations = %d before the write", got)
					}
					write(h, 1, words, 6, ctx)
					if len(races) != words {
						t.Fatalf("%d races, want one per word", len(races))
					}
					for _, r := range races {
						if !r.Write || r.Racer.Prev != 2 || r.Racer.PrevWrite {
							t.Fatalf("racer %+v, want a write racing the inline reader 2", r)
						}
					}
				})
			}
		}
	})
}
