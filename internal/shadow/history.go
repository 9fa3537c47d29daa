// Package shadow implements the detector's access history (§3): for every
// shadow word it stores the most recent writer strand plus a reader list
// that is flushed on each race-free write, keeping the total number of
// reachability queries bounded by O(number of memory accesses).
//
// The table is organised like FutureRD's: a two-level flat structure where
// the high bits of the address select a page and the low bits a slot
// inside a densely allocated page. Addresses come from the library's
// virtual address allocator; one shadow word covers one element, the
// analogue of FutureRD's 4-byte granularity (all the paper's benchmarks
// make accesses of at least 4 bytes).
//
// # Fast paths
//
// The per-access cost is dominated by (a) locating the shadow word and
// (b) the reachability query, so both have dedicated fast paths:
//
//   - Page location is a flat two-level table (directory slice → page
//     array) instead of a map, fronted by a last-page cache, so a
//     sequential scan resolves its page once per 4096 words.
//
//   - ReadRange/WriteRange/TouchRange split a bulk access at page
//     boundaries, hoist the page lookup out of the loop, and run a tight
//     per-word loop over the page's slot array.
//
//   - Epoch-style ownership: a strand re-accessing a word it already owns
//     (it is the last writer, and for writes no readers intervened) is
//     race-free by definition and skips the protocol entirely — the
//     FastTrack "same epoch" observation transplanted to strand ids.
//
//   - Carried-forward read epochs: each word additionally carries a
//     lastReader stamp recorded when a read completes race-free, and the
//     stamp stays valid *across* construct generations — it dies only at
//     the next write install (flushReaders), never at a spawn or join.
//     The word's read state is a two-state machine: *single-reader* (the
//     inline reader0 slot plus the stamp) inflating to *inflated* (a
//     reader list in the History's slot arena, entered only on genuine
//     read contention — a second distinct reader between writes) and
//     deflating back on the next write install, which returns the slot to
//     the arena's free list. The stamp is consulted twice:
//
//     1. A strand re-reading a word it was the last to read skips the
//     protocol outright. The engine only keeps a strand current across a
//     generation bump at an empty sync, which records no relation
//     mutation, so the verdict proven at the stamp is still in force —
//     no generation check needed.
//
//     2. For a different current reader s, the stamp transfers its
//     verdict through the algorithm's EpochConcurrent capability:
//     EpochOrdered(lastReader, s) promises that the writer-side Precedes
//     the stamp holder proved would still answer true for s, so the
//     writer query is skipped (counted as an epoch hit) and the word is
//     appended/re-stamped race-free. This is FastTrack's adaptive
//     read-epoch observation carried over to strand ids: repeated
//     cross-generation reads of shared data, the dominant pattern in
//     future-parallel code, cost ~0 reachability queries instead of one
//     per (word, strand, generation).
//
//   - The last (writer-strand → current-strand) reachability verdict is
//     memoized: consecutive words written by the same predecessor strand
//     pay one Precedes call, not one per word. The memo is keyed by the
//     engine's construct generation plus the current strand, both of which
//     change at every parallel construct, so a stale verdict can never be
//     observed (the reachability relation only mutates at constructs, and
//     strand ids are never reused).
//
// The fast paths are verdict-preserving: for every access they report a
// race if and only if the word-at-a-time reference protocol (Read/Write
// below) does, with the same racing strand — see the differential fuzz
// test FuzzRangeMatchesReference.
//
// # Parallel ranges
//
// Large bulk accesses can additionally fan out across a persistent worker
// pool (parallel.go): the reachability relation is immutable between
// parallel constructs, so the per-word Precedes queries of one range are
// read-only and chunks of the range can run concurrently. The fan-out is
// verdict-preserving too, down to the order of reported events; the same
// fuzz test drives it.
package shadow

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"futurerd/internal/core"
	"futurerd/internal/faultinject"
)

// PageBits sets the page size: 2^PageBits words per page.
const PageBits = 12

const pageSize = 1 << PageBits
const pageMask = pageSize - 1

// dirBits sets the directory fan-out of the flat page table: each
// directory node covers 2^dirBits consecutive pages.
const dirBits = 10

const dirSize = 1 << dirBits
const dirMask = dirSize - 1

// maxDirs bounds the root slice of the flat table (it is grown densely, so
// a huge address would otherwise allocate a huge root). Pages whose
// directory index is beyond the bound — addresses ≥ 2^(PageBits+dirBits+20),
// which the library's dense allocator never produces — spill into a map.
const maxDirs = 1 << 20

// word is the shadow state of one address: the last writer, the first
// reader since that write, and the carried-forward read-epoch stamp (the
// most recent race-free reader) — 12 pointer-free bytes. Keeping pages
// free of pointers matters as much as the lookup structure: a page
// allocates in a noscan span, so the garbage collector never walks shadow
// memory, and first-touch zeroing clears 48KB instead of a pointer-scanned
// multiple. The uncommon case of several distinct readers between two
// writes spills to a slot of History.arena (the inflated state): reader0
// then holds spillFlag | slot instead of a strand.
//
// The stamp invariant: lastReader is non-zero only if it completed a
// race-free read of this word — meaning the word's writer at that moment
// was proven to precede it — and no write has touched the word since
// (installWriter clears the stamp). The stamp carries no generation: it
// stays consultable across construct generations, and verdict transfer to
// a different current reader goes through the algorithm's EpochOrdered
// check (see readWordSlow).
type word struct {
	lastWriter core.StrandID
	reader0    core.StrandID
	lastReader core.StrandID
}

// WordBytes is the resident footprint of one shadow word; the benchmark
// harness multiplies it by the touched-page word count to report shadow
// bytes. The blank array below fails to compile if the word layout drifts.
const WordBytes = 12

var _ [1]struct{} = [unsafe.Sizeof(word{}) - WordBytes + 1]struct{}{}

// spillFlag marks an inflated word: its reader0 is spillFlag | slot, and
// History.arena[slot] holds its whole reader list. The flag occupies the
// top bit of reader0, which caps strand ids (and arena slots) at 2^31-1 —
// unreachable in practice (the engine allocates a few strands per parallel
// construct and would exhaust memory long before).
const spillFlag core.StrandID = 1 << 31

// page is one densely allocated run of shadow words plus the page-level
// sampling coupon (a packed generation-tag + remaining-budget word, see
// sampler.go). The struct stays pointer-free, so pages still allocate in
// noscan spans. The coupon is atomic because workers of one fan-out may
// share a page (never a word); the serial path pays an uncontended CAS
// only on sampled accesses under a finite budget.
type page struct {
	w      [pageSize]word
	coupon atomic.Uint64
}

// directory is one node of the flat page table's second level. Entries are
// atomic pointers so the parallel range path can materialize pages while
// sibling workers read neighboring entries; on the serial path an atomic
// load costs the same as a plain one.
type directory [dirSize]atomic.Pointer[page]

// pageStripes is the number of stripe locks guarding concurrent page
// materialization on the parallel range path. Stripes are selected by page
// number, so two workers only contend when their pages collide mod the
// stripe count — and then only on each page's first touch.
const pageStripes = 64

// History is the access history for one detection run.
type History struct {
	// dirs is the flat table root, indexed by pageNumber >> dirBits. It is
	// published through an atomic pointer and grown copy-on-write (growth
	// is rare: once per dirSize pages): the serial path is the only writer
	// outside a fan-out, and the parallel range path grows it under dirMu
	// so workers can read the root lock-free mid-materialization.
	dirs  atomic.Pointer[[]*directory]
	dirMu sync.Mutex

	overflow map[uint64]*page // pages beyond maxDirs directories

	// arena holds the reader lists of inflated words, addressed by the
	// slot index in their reader0: the former inline reader first, then
	// the spilled readers in arrival order. A write install truncates the
	// slot and pushes it on free, so its capacity serves whichever word
	// inflates next and a hot read-shared vector does not reallocate.
	arena [][]core.StrandID
	free  []uint32

	// spillMu guards arena and free on the parallel range path; the
	// serial path uses them directly (the worker pool is quiescent then).
	spillMu sync.Mutex

	// stripes guards page materialization on the parallel range path,
	// selected by page number (see pageForShared).
	stripes [pageStripes]sync.Mutex

	// Last-page cache: valid whenever lastPage != nil.
	lastPN   uint64
	lastPage *page

	// Memoized reachability verdict for (memoSrc ≺ memoCur) at construct
	// generation memoGen. A single entry suffices: bulk accesses tend to
	// revisit one predecessor strand for long runs of words.
	memoGen uint64
	memoCur core.StrandID
	memoSrc core.StrandID
	memoOK  bool

	// Memoized epoch-transfer verdict for EpochOrdered(epochSrc, epochCur)
	// at generation epochGen — same single-entry regime as the precedes
	// memo: bulk re-reads revisit one stamp holder for long runs of words.
	epochGen uint64
	epochCur core.StrandID
	epochSrc core.StrandID
	epochOK  bool

	// Counters for the benchmark harness. touchedPages is incremented
	// atomically on the parallel path (workers materialize their own
	// pages); everything else is either serial or aggregated from
	// worker-local counters after each fan-out.
	reads, writes   uint64
	readerAppends   uint64
	readerFlushes   uint64
	touchedPages    uint64
	pageCacheHits   uint64
	ownedSkips      uint64
	readSharedSkips uint64
	memoHits        uint64
	epochHits       uint64 // reads resolved by stamp verdict transfer
	epochInflations uint64 // single-reader → inflated (arena slot taken) transitions
	epochDeflations uint64 // inflated → flushed (write install) transitions
	parRanges       uint64 // range ops that actually fanned out
	parChunks       uint64 // chunks processed across all fan-outs
	sampledAccesses uint64 // slow-path accesses admitted by the sampler
	budgetSkips     uint64 // rate-admitted accesses denied a page coupon
	touched         uint64 // Touch checksum; keeps the instr config honest

	// smp is the tier-1 access sampler (sampler.go); the zero value is
	// disarmed and every access pays the full protocol.
	smp sampler

	// faults is the run's fault-injection plan (nil in production): its
	// only probe here is PageFail, fired at page materialization to model
	// a failed shadow allocation. See SetFaults.
	faults *faultinject.Plan
}

// NewHistory returns an empty access history.
func NewHistory() *History {
	h := &History{}
	root := []*directory(nil)
	h.dirs.Store(&root)
	return h
}

// SetFaults arms fault injection on the history (nil disarms — the
// default; every probe is then one nil check). Call before any access.
func (h *History) SetFaults(p *faultinject.Plan) { h.faults = p }

// maybeFailPage is the PageFail probe: a firing plan turns this page
// materialization into a panic, modeling a failed shadow-page allocation.
// The detection pipeline's recover shell converts it into a structured
// PipelineError, which is the point: allocation failure anywhere in the
// shadow layer must fail the run closed, not corrupt it.
func (h *History) maybeFailPage() {
	if h.faults.Fire(faultinject.PageFail) {
		panic(faultinject.Panic{Point: faultinject.PageFail})
	}
}

// growDirs returns a root slab whose entry di exists and is non-nil,
// growing and republishing copy-on-write if needed. Single-writer (serial
// path) or dirMu-holder (shared path) only.
func (h *History) growDirs(di uint64) []*directory {
	slab := *h.dirs.Load()
	if di < uint64(len(slab)) && slab[di] != nil {
		return slab
	}
	n := uint64(len(slab))
	if di >= n {
		n = di + 1
	}
	ns := make([]*directory, n)
	copy(ns, slab)
	if ns[di] == nil {
		ns[di] = new(directory)
	}
	h.dirs.Store(&ns)
	return ns
}

// pageFor returns the page holding page number pn, materializing it on
// first touch. The last resolved page is cached; sequential scans hit the
// cache for all but the first word of each page. Serial path only; the
// workers of a fan-out go through pageForShared.
func (h *History) pageFor(pn uint64) *page {
	if h.lastPage != nil && h.lastPN == pn {
		h.pageCacheHits++
		return h.lastPage
	}
	var p *page
	if di := pn >> dirBits; di < maxDirs {
		slab := *h.dirs.Load()
		if di >= uint64(len(slab)) || slab[di] == nil {
			slab = h.growDirs(di)
		}
		d := slab[di]
		p = d[pn&dirMask].Load()
		if p == nil {
			h.maybeFailPage()
			p = new(page)
			d[pn&dirMask].Store(p)
			h.touchedPages++
		}
	} else {
		if h.overflow == nil {
			h.overflow = make(map[uint64]*page)
		}
		p = h.overflow[pn]
		if p == nil {
			h.maybeFailPage()
			p = new(page)
			h.overflow[pn] = p
			h.touchedPages++
		}
	}
	h.lastPN, h.lastPage = pn, p
	return p
}

// ResetBatchCaches invalidates the cross-batch carryover state of the
// serial range path — the single-entry verdict memo and the epoch-transfer
// memo. The engine calls it at every batch boundary so the synchronous
// and asynchronous pipelines answer the same queries from the same
// caches: a batch always starts with cold memos, whichever goroutine
// checks it. (The last-page cache is deliberately kept:
// page-cache hits are a plumbing counter, excluded from
// cross-configuration equivalence.)
func (h *History) ResetBatchCaches() {
	h.memoCur = core.NoStrand
	h.epochCur = core.NoStrand
}

func (h *History) wordFor(addr uint64) *word {
	return &h.pageFor(addr >> PageBits).w[addr&pageMask]
}

// Touch decodes addr into its page and slot indices without maintaining
// or querying the access history — the "instrumentation" configuration of
// the paper's evaluation: the memory hook fires and pays the dispatch and
// address-decoding cost, nothing more. The decoded indices are folded
// into a checksum so the compiler cannot elide the work.
func (h *History) Touch(addr uint64) {
	h.touched += (addr >> PageBits) ^ (addr & pageMask)
}

// TouchRange is the bulk form of Touch: it decodes words consecutive
// addresses starting at addr into the checksum in one tight loop, without
// a hook dispatch per word.
func (h *History) TouchRange(addr uint64, words int) {
	sum := h.touched
	for ; words > 0; words-- {
		sum += (addr >> PageBits) ^ (addr & pageMask)
		addr++
	}
	h.touched = sum
}

// Racer is the pair of conflicting strands found by Read or Write.
type Racer struct {
	Prev      core.StrandID
	PrevWrite bool
}

// Read processes a read of addr by strand s. It returns the racing
// previous access (a write) and true if the read races, after which the
// caller reports and detection continues. reach answers "u precedes the
// current strand".
//
// Protocol (§3): a read races iff it is logically parallel with the last
// writer; otherwise the reader is appended to the reader list.
//
// Read and Write are the word-at-a-time reference protocol; the engine's
// hot path is ReadRange/WriteRange, which must stay verdict-equivalent.
func (h *History) Read(addr uint64, s core.StrandID, precedes func(u core.StrandID) bool) (Racer, bool) {
	h.reads++
	w := h.wordFor(addr)
	if w.lastWriter != core.NoStrand && w.lastWriter != s && !precedes(w.lastWriter) {
		return Racer{Prev: w.lastWriter, PrevWrite: true}, true
	}
	// Append s to the reader list, deduplicating the common case of the
	// same strand re-reading the location between writes.
	h.appendReader(w, s)
	return Racer{}, false
}

func (h *History) appendReader(w *word, s core.StrandID) {
	switch {
	case w.reader0 == core.NoStrand:
		w.reader0 = s
		h.readerAppends++
	case w.reader0 == s:
	default:
		h.appendSpill(w, s)
	}
}

// appendSpill records a distinct reader of w beyond its inline one; see
// spillReader.
func (h *History) appendSpill(w *word, s core.StrandID) {
	appended, inflated := h.spillReader(w, s)
	if appended {
		h.readerAppends++
	}
	if inflated {
		h.epochInflations++
	}
}

// spillReader records s as a reader of w when w already has a different
// inline reader or is inflated — the read-epoch state machine's
// inflation: genuine read contention moves the inline reader into an
// arena slot (reused from the free list when one is free) followed by s,
// and reader0 becomes spillFlag | slot. On an inflated word the first and
// the most recent reader deduplicate repeats, exactly as the inline slot
// and the previous tail did before inflation, bounding growth by the
// number of reader alternations. It reports whether s was appended and
// whether w inflated; the caller owns the counters (and, on the shared
// paths, holds spillMu).
func (h *History) spillReader(w *word, s core.StrandID) (appended, inflated bool) {
	if w.reader0&spillFlag != 0 {
		slot := w.reader0 &^ spillFlag
		rs := h.arena[slot]
		if rs[0] == s || rs[len(rs)-1] == s {
			return false, false // same strand re-reading; already recorded
		}
		h.arena[slot] = append(rs, s)
		return true, false
	}
	var slot uint32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		slot = uint32(len(h.arena))
		h.arena = append(h.arena, nil)
	}
	h.arena[slot] = append(h.arena[slot], w.reader0, s)
	w.reader0 = spillFlag | core.StrandID(slot)
	return true, true
}

// deflate releases the arena slot of an inflated word: the slot keeps its
// capacity and goes on the free list for the next inflation. The caller
// clears reader0 (and, on the shared paths, holds spillMu).
func (h *History) deflate(w *word) {
	slot := uint32(w.reader0 &^ spillFlag)
	h.arena[slot] = h.arena[slot][:0]
	h.free = append(h.free, slot)
}

// flushReaders empties the reader list of w after a write install, along
// with the read-epoch stamp (which must not survive a write: its verdict
// was proven against the previous writer). An inflated word deflates here
// — the next race-free read re-enters the single-reader state — and its
// arena slot returns to the free list. A word with no readers has no
// stamp either — a race-free read always records its reader — so the
// early return cannot strand a stale stamp.
func (h *History) flushReaders(w *word) {
	if w.reader0 == core.NoStrand {
		return
	}
	if w.reader0&spillFlag != 0 {
		h.deflate(w)
		h.epochDeflations++
	}
	w.reader0 = core.NoStrand
	w.lastReader = core.NoStrand
	h.readerFlushes++
}

// Write processes a write of addr by strand s. It returns the first racing
// previous access found (a reader or the last writer) and true if the
// write races. On a race-free write the reader list is emptied and s
// becomes the last writer; the paper shows this loses no races because
// anything parallel with a flushed reader that runs later is also parallel
// with s.
//
// A racing write also installs itself (readers flushed, s becomes the
// last writer) after the race is reported. Leaving the old state in place
// would make every later access of the address re-race against the same
// stale writer, so one logical race would re-report on each subsequent
// access — quadratic RaceCount growth on a racy scan. Installing trades
// that cascade for the standard post-race imprecision every shadow-state
// detector accepts once a location has raced: detection continues as if
// the racing write were ordinary.
func (h *History) Write(addr uint64, s core.StrandID, precedes func(u core.StrandID) bool) (Racer, bool) {
	h.writes++
	w := h.wordFor(addr)
	if prev := w.lastWriter; prev != core.NoStrand && prev != s && !precedes(prev) {
		h.installWriter(w, s)
		return Racer{Prev: prev, PrevWrite: true}, true
	}
	r0, more := h.readers(w)
	if r0 != core.NoStrand && r0 != s && !precedes(r0) {
		h.installWriter(w, s)
		return Racer{Prev: r0, PrevWrite: false}, true
	}
	for _, r := range more {
		if r != s && !precedes(r) {
			h.installWriter(w, s)
			return Racer{Prev: r, PrevWrite: false}, true
		}
	}
	h.installWriter(w, s)
	return Racer{}, false
}

// readers returns w's reader list in check order: the first reader (the
// inline one, NoStrand if none) and the spilled readers after it, read
// straight from the arena slot of an inflated word. The shared paths call
// it under spillMu, which orders the read against arena growth.
func (h *History) readers(w *word) (first core.StrandID, more []core.StrandID) {
	if w.reader0&spillFlag == 0 {
		return w.reader0, nil
	}
	rs := h.arena[w.reader0&^spillFlag]
	return rs[0], rs[1:]
}

// installWriter completes a write: the reader list is flushed and s
// becomes the last writer. Called for race-free and racing writes alike
// (see Write).
func (h *History) installWriter(w *word, s core.StrandID) {
	h.flushReaders(w)
	w.lastWriter = s
}

// Ctx bundles the per-run reachability context the engine threads through
// the range operations: the reachability structure queried directly (no
// per-query closure), the construct generation keying the verdict memo,
// and the race sinks. The engine owns one Ctx per run and bumps Gen at
// every parallel construct.
type Ctx struct {
	Reach core.Reach
	Gen   uint64
	// Epoch is the algorithm's epoch-transfer capability, or nil when the
	// algorithm does not offer one (the oracle recorder, the verify
	// cross-check); nil disables stamp verdict transfer and every
	// different-reader stamp falls back to the full writer query.
	Epoch core.EpochConcurrent
	// OnReadRace/OnWriteRace receive every racing word of a range with
	// the racer the reference protocol would report and the accessing
	// strand (so the engine does not track a current strand per access).
	OnReadRace  func(addr uint64, r Racer, cur core.StrandID)
	OnWriteRace func(addr uint64, r Racer, cur core.StrandID)
}

// precedes answers "u is sequentially before the current strand s" through
// the single-entry verdict memo. ctx.Gen is the engine's construct
// generation; (Gen, s) together pin a window during which the reachability
// relation is immutable, so a memo hit is always safe.
func (h *History) precedes(u, s core.StrandID, ctx *Ctx) bool {
	if h.memoGen == ctx.Gen && h.memoCur == s && h.memoSrc == u {
		h.memoHits++
		return h.memoOK
	}
	ok := ctx.Reach.Precedes(u, s)
	h.memoGen, h.memoCur, h.memoSrc, h.memoOK = ctx.Gen, s, u, ok
	return ok
}

// epochOrdered answers "r's read-epoch stamp transfers its race-free
// verdict to the current strand s" through the algorithm's EpochConcurrent
// capability, memoized like precedes: a range whose words were all stamped
// by the same earlier reader pays one EpochOrdered call.
func (h *History) epochOrdered(r, s core.StrandID, ctx *Ctx) bool {
	if ctx.Epoch == nil {
		return false
	}
	if h.epochGen == ctx.Gen && h.epochCur == s && h.epochSrc == r {
		return h.epochOK
	}
	ok := ctx.Epoch.EpochOrdered(r, s)
	h.epochGen, h.epochCur, h.epochSrc, h.epochOK = ctx.Gen, s, r, ok
	return ok
}

// ReadRange processes reads of words consecutive addresses starting at
// addr by strand s, splitting at page boundaries so the page lookup runs
// once per page segment. Every racing word is reported through report
// (with the same racer the reference protocol would find); race-free words
// update the reader lists.
//
// Fast paths: a read of a word whose last writer is s itself is race-free
// and skipped without touching the reader list. That loses no races: any
// later access racing with this read also races with s's own earlier
// write, which stays in the history and is checked first by both Read and
// Write — so every verdict and every reported racer is unchanged.
//
// A read of a word s was the last to read is likewise skipped (the
// read-epoch fast path), in any construct generation: s's earlier read
// already proved the word's writer precedes s, the reader list already
// records s, any intervening write would have cleared the stamp — and the
// engine only keeps a strand current across generation bumps at empty
// syncs, which mutate nothing, so the proven verdict is still in force.
// The protocol would re-derive precisely the state the word is already in.
func (h *History) ReadRange(addr uint64, words int, s core.StrandID, ctx *Ctx) {
	if words <= 0 {
		return
	}
	h.reads += uint64(words)
	if words == 1 {
		// One-word accesses (Array/Var Get) skip the segment machinery.
		pn := addr >> PageBits
		p := h.lastPage
		if p != nil && h.lastPN == pn {
			h.pageCacheHits++
		} else {
			p = h.pageFor(pn)
		}
		w := &p.w[addr&pageMask]
		switch {
		case w.lastWriter == s:
			h.ownedSkips++ // epoch fast path: s reads its own last write
		case w.lastReader == s:
			h.readSharedSkips++ // read epoch: s's own stamp, still proven
		default:
			h.readWordSlow(w, p, addr, s, ctx)
		}
		return
	}
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		pn := addr >> PageBits
		p := h.lastPage
		if p != nil && h.lastPN == pn {
			h.pageCacheHits++
		} else {
			p = h.pageFor(pn)
		}
		ws := p.w[slot : slot+n]
		for i := range ws {
			w := &ws[i]
			switch {
			case w.lastWriter == s:
				h.ownedSkips++ // epoch fast path: s reads its own last write
			case w.lastReader == s:
				h.readSharedSkips++ // read epoch: s's own stamp, still proven
			default:
				h.readWordSlow(w, p, addr+uint64(i), s, ctx)
			}
		}
		words -= n
		if words == 0 {
			return
		}
		addr += uint64(n)
	}
}

// readWordSlow runs the read protocol for a word s does not own (the
// owned-word and same-reader epoch fast paths are inlined at the call
// sites). If a different reader's stamp is present and the algorithm's
// EpochOrdered transfers its verdict to s, the writer query is skipped —
// the stamped reader already proved the (unchanged-since) writer precedes
// it, and the transfer promises the same verdict holds for s. Either way a
// race-free completion appends s to the reader list and re-stamps, so the
// word's racer-identity state matches the reference protocol exactly.
//
// With sampling armed, a read the free tiers could not resolve consults
// the sampler before paying the writer query; an unsampled read skips the
// verdict (a race here is missed) but still installs its reader state
// below, so later sampled queries see exact racer identity.
func (h *History) readWordSlow(w *word, p *page, addr uint64, s core.StrandID, ctx *Ctx) {
	if w.lastWriter != core.NoStrand {
		if r := w.lastReader; r != core.NoStrand && h.epochOrdered(r, s, ctx) {
			h.epochHits++ // stamp verdict transfer: no writer query
		} else if h.smp.on && !h.sampleSlow(p, addr, ctx.Gen) {
			// Unsampled: fall through to the install below.
		} else if !h.precedes(w.lastWriter, s, ctx) {
			ctx.OnReadRace(addr, Racer{Prev: w.lastWriter, PrevWrite: true}, s)
			return // racy read is not appended (reference protocol), not stamped
		}
	}
	w.lastReader = s
	if w.reader0 == core.NoStrand {
		w.reader0 = s
		h.readerAppends++
		return
	}
	if w.reader0 == s {
		return // same strand re-reading between writes
	}
	h.appendSpill(w, s)
}

// WriteRange processes writes of words consecutive addresses starting at
// addr by strand s, with the same page-segment structure as ReadRange.
//
// Fast path: a write to a word s already owns (s is the last writer and no
// readers intervened) is a no-op re-establishing the exact same state, so
// the protocol is skipped entirely.
func (h *History) WriteRange(addr uint64, words int, s core.StrandID, ctx *Ctx) {
	if words <= 0 {
		return
	}
	h.writes += uint64(words)
	if words == 1 {
		// One-word accesses (Array/Var Set) skip the segment machinery.
		pn := addr >> PageBits
		p := h.lastPage
		if p != nil && h.lastPN == pn {
			h.pageCacheHits++
		} else {
			p = h.pageFor(pn)
		}
		w := &p.w[addr&pageMask]
		if w.reader0 == core.NoStrand && (w.lastWriter == s || w.lastWriter == core.NoStrand) {
			// Epoch fast path: owner rewrite or first write to a fresh
			// word with no readers — no protocol to run.
			w.lastWriter = s
			h.ownedSkips++
		} else {
			h.writeSlow(w, p, addr, s, ctx)
		}
		return
	}
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		pn := addr >> PageBits
		p := h.lastPage
		if p != nil && h.lastPN == pn {
			h.pageCacheHits++
		} else {
			p = h.pageFor(pn)
		}
		ws := p.w[slot : slot+n]
		for i := range ws {
			w := &ws[i]
			// Epoch fast path: with no readers to check, a rewrite by the
			// owner or a first write to a fresh word runs no protocol —
			// the reference would make zero queries and end in this exact
			// state.
			if w.reader0 == core.NoStrand && (w.lastWriter == s || w.lastWriter == core.NoStrand) {
				w.lastWriter = s
				h.ownedSkips++
			} else {
				h.writeSlow(w, p, addr+uint64(i), s, ctx)
			}
		}
		words -= n
		if words == 0 {
			return
		}
		addr += uint64(n)
	}
}

// writeSlow is the full write protocol for one word. Like the reference
// Write, a racing write installs itself after reporting so one logical
// race cannot re-report on every later access of the address.
//
// With sampling armed, the sampler is consulted before any query; an
// unsampled write skips every verdict but still installs itself (readers
// flushed, s becomes the last writer) — the exact end state of a
// race-free protocol run, so later sampled queries are unaffected.
func (h *History) writeSlow(w *word, p *page, addr uint64, s core.StrandID, ctx *Ctx) {
	if h.smp.on && !h.sampleSlow(p, addr, ctx.Gen) {
		h.installWriter(w, s)
		return
	}
	if prev := w.lastWriter; prev != core.NoStrand && prev != s && !h.precedes(prev, s, ctx) {
		h.installWriter(w, s)
		ctx.OnWriteRace(addr, Racer{Prev: prev, PrevWrite: true}, s)
		return
	}
	r0, more := h.readers(w)
	if r0 != core.NoStrand && r0 != s && !h.precedes(r0, s, ctx) {
		h.installWriter(w, s)
		ctx.OnWriteRace(addr, Racer{Prev: r0, PrevWrite: false}, s)
		return
	}
	for _, r := range more {
		if r != s && !h.precedes(r, s, ctx) {
			h.installWriter(w, s)
			ctx.OnWriteRace(addr, Racer{Prev: r, PrevWrite: false}, s)
			return
		}
	}
	h.installWriter(w, s)
}

// Stats describes access-history traffic.
type Stats struct {
	Reads, Writes uint64
	ReaderAppends uint64
	ReaderFlushes uint64
	TouchedPages  uint64
	// PageCacheHits counts page lookups resolved by the last-page cache.
	PageCacheHits uint64
	// OwnedSkips counts accesses short-circuited by the epoch-style
	// ownership fast path (no protocol run, no reachability query).
	OwnedSkips uint64
	// ReadSharedSkips counts reads short-circuited by the read-epoch fast
	// path: the strand re-read a word it was the last to read, so the
	// proven verdict was reused and no protocol ran. Disjoint from
	// OwnedSkips (an access is counted by at most one skip counter).
	ReadSharedSkips uint64
	// MemoHits counts reachability queries answered by the memoized
	// last-verdict cache instead of the reachability structure.
	MemoHits uint64
	// EpochHits counts reads of a stamped word by a different strand whose
	// writer query was skipped because the algorithm's EpochOrdered
	// transferred the stamp holder's race-free verdict to the reader.
	EpochHits uint64
	// EpochInflations counts single-reader → inflated transitions (a
	// word's reader list outgrowing the inline slot into an arena slot);
	// EpochDeflations counts the inverse (a write install flushing an
	// inflated word back toward the single-reader state).
	EpochInflations uint64
	EpochDeflations uint64
	// SpillEntries is the number of spilled reader entries — readers of
	// inflated words beyond the first — at the time Stats was taken: the
	// live footprint of inflated words, not the arena's capacity.
	SpillEntries uint64
	// ParRanges counts range operations that fanned out across the worker
	// pool; ParChunks counts the chunks processed across all fan-outs.
	ParRanges uint64
	ParChunks uint64
	// SampledAccesses counts slow-path accesses the tier-1 sampler
	// admitted to the full protocol; SkippedByBudget counts rate-admitted
	// accesses denied by an exhausted per-page coupon budget. Both are
	// zero when sampling is disarmed, and SampledAccesses at rate 1.0
	// (unlimited budget) equals the number of protocol-bound slow-path
	// accesses — deterministic for every pipeline configuration.
	SampledAccesses uint64
	SkippedByBudget uint64
}

// Stats returns the history's counters. Called on a quiescent history
// (after the run, or between accesses), so the arena walk needs no lock.
func (h *History) Stats() Stats {
	var spillEntries uint64
	for _, rs := range h.arena {
		if len(rs) > 0 { // a free slot is empty; a live one holds ≥ 2 readers
			spillEntries += uint64(len(rs) - 1)
		}
	}
	return Stats{
		Reads: h.reads, Writes: h.writes,
		ReaderAppends:   h.readerAppends,
		ReaderFlushes:   h.readerFlushes,
		TouchedPages:    h.touchedPages,
		PageCacheHits:   h.pageCacheHits,
		OwnedSkips:      h.ownedSkips,
		ReadSharedSkips: h.readSharedSkips,
		MemoHits:        h.memoHits,
		EpochHits:       h.epochHits,
		EpochInflations: h.epochInflations,
		EpochDeflations: h.epochDeflations,
		SpillEntries:    spillEntries,
		ParRanges:       h.parRanges,
		ParChunks:       h.parChunks,
		SampledAccesses: h.sampledAccesses,
		SkippedByBudget: h.budgetSkips,
	}
}
