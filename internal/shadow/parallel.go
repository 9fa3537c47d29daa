// Parallel range detection: ReadRange/WriteRange/TouchRange fanned out
// across a persistent worker pool.
//
// The enabling observation is the same one behind the verdict memo:
// between parallel constructs the reachability relation is immutable
// (Ctx.Gen keys on exactly that), so every Precedes query made inside one
// range access is logically read-only. A bulk range can therefore be
// split into chunks processed by concurrent workers, provided
//
//   - the reachability structure advertises core.QueryConcurrent (its
//     query path is read-only up to CAS path compression and atomic
//     counters — the engine enforces this before enabling the pool);
//   - page materialization is safe under concurrency: directory entries
//     are atomic pointers and creation is serialized by stripe locks
//     keyed on the page number (pageForShared), while the coordinator
//     pre-ensures the directory level and overflow pages serially;
//   - the reader-list arena of inflated words (and its free list) is
//     guarded by a mutex on this path: a slot belongs to one word, so
//     only arena growth and slot reuse are shared;
//   - each worker keeps its own last-page cache, (Gen, strand) verdict
//     memo and stat counters, so the hot loop shares nothing.
//
// Chunks partition the range, so every shadow word is touched by exactly
// one worker per operation; two workers may share a page (distinct slots)
// but never a word. Race events are buffered per chunk and delivered to
// the Ctx sinks by the coordinator after the join, in chunk order — which
// is address order — so the event stream is byte-for-byte the one the
// serial path produces. The differential fuzz test drives the parallel
// path against the word-at-a-time reference to prove exactly that.
package shadow

import (
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
	"futurerd/internal/faultinject"
)

// DefaultChunkWords is the default chunk granule of the parallel range
// path. Ranges shorter than two chunks stay on the serial path: the
// fan-out costs a channel round-trip per chunk, which only amortizes over
// thousands of words. Four pages per chunk won the BenchmarkChunkWords
// sweep (2k–64k candidates): ~10% over two pages on the 1M-word seqscan,
// tied with eight pages, which was rejected because it stops splitting
// ranges under 64k words at all — too coarse to fan out the mid-size
// ranges real workloads make.
const DefaultChunkWords = 4 * pageSize

// Pool is a persistent worker pool for parallel range detection. One pool
// serves one detection run (engines are single-use); the goroutines park
// on a channel between operations, so each fan-out costs channel sends,
// not goroutine creation. Close releases the workers.
type Pool struct {
	workers int
	chunk   int
	tasks   chan *chunkJob
	once    sync.Once
}

// NewPool starts a pool of the given total width (the coordinating
// goroutine participates, so workers-1 goroutines are spawned).
// chunkWords sets the chunk granule; <=0 means DefaultChunkWords. Returns
// nil if workers < 2 — the serial path needs no pool.
func NewPool(workers, chunkWords int) *Pool {
	if workers < 2 {
		return nil
	}
	if chunkWords <= 0 {
		chunkWords = DefaultChunkWords
	}
	p := &Pool{
		workers: workers,
		chunk:   chunkWords,
		// Buffer one fan-out's worth of jobs so the coordinator never
		// blocks on the send loop.
		tasks: make(chan *chunkJob, 4*workers),
	}
	for i := 0; i < workers-1; i++ {
		go func() {
			for j := range p.tasks {
				j.run()
				j.done.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool's total width (including the coordinator).
func (p *Pool) Workers() int { return p.workers }

// Close releases the pool's goroutines. Safe to call more than once; the
// pool must be quiescent (no operation in flight).
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.tasks) })
}

// Chunk ops.
const (
	opRead = iota
	opWrite
	opTouch
)

// parEvent is one buffered race report of a chunk. The access kind needs
// no tag: a chunk belongs to exactly one range operation, so all of its
// events are reads or all are writes, and the caller picks the sink.
type parEvent struct {
	addr  uint64
	racer Racer
}

// chunkJob is one unit of fan-out work: a sub-range of one bulk access.
type chunkJob struct {
	cs   chunkState
	op   int
	addr uint64
	n    int
	done *sync.WaitGroup

	// panicked holds the recovered panic of run, if any; the fan-out
	// coordinator re-raises it on its own goroutine once the join
	// completes. A raw panic on a pool worker would kill the process with
	// no recover shell above it.
	panicked any
}

func (j *chunkJob) run() {
	defer func() {
		if r := recover(); r != nil {
			j.panicked = r
		}
	}()
	switch j.op {
	case opRead:
		j.cs.readRange(j.addr, j.n)
	case opWrite:
		j.cs.writeRange(j.addr, j.n)
	case opTouch:
		j.cs.touchRange(j.addr, j.n)
	}
}

// chunkState is the worker-local state of one chunk: its own last-page
// cache, verdict memo and counters, so the per-word loop touches no
// shared memory except the (disjoint) shadow words themselves.
type chunkState struct {
	h   *History
	ctx *Ctx
	s   core.StrandID

	lastPN   uint64
	lastPage *page

	// Verdict memo. Gen and the current strand are fixed for the whole
	// operation, so the key degenerates to the predecessor strand.
	memoValid bool
	memoSrc   core.StrandID
	memoOK    bool

	// Epoch-transfer memo, same degenerate key (the stamp holder).
	epochValid bool
	epochSrc   core.StrandID
	epochOK    bool

	events []parEvent

	// Worker-local counters, folded into the History after the join.
	reads, writes   uint64
	readerAppends   uint64
	readerFlushes   uint64
	pageCacheHits   uint64
	ownedSkips      uint64
	readSharedSkips uint64
	memoHits        uint64
	epochHits       uint64
	epochInflations uint64
	epochDeflations uint64
	parRanges       uint64
	parChunks       uint64
	sampledAccesses uint64
	budgetSkips     uint64
	touched         uint64
}

// addCounters folds o's counters into c (used when a fan-out's chunk
// states are folded into the operation's sink state).
func (c *chunkState) addCounters(o *chunkState) {
	c.reads += o.reads
	c.writes += o.writes
	c.readerAppends += o.readerAppends
	c.readerFlushes += o.readerFlushes
	c.pageCacheHits += o.pageCacheHits
	c.ownedSkips += o.ownedSkips
	c.readSharedSkips += o.readSharedSkips
	c.memoHits += o.memoHits
	c.epochHits += o.epochHits
	c.epochInflations += o.epochInflations
	c.epochDeflations += o.epochDeflations
	c.parRanges += o.parRanges
	c.parChunks += o.parChunks
	c.sampledAccesses += o.sampledAccesses
	c.budgetSkips += o.budgetSkips
	c.touched += o.touched
}

func (c *chunkState) precedes(u core.StrandID) bool {
	if c.memoValid && c.memoSrc == u {
		c.memoHits++
		return c.memoOK
	}
	ok := c.ctx.Reach.Precedes(u, c.s)
	c.memoValid, c.memoSrc, c.memoOK = true, u, ok
	return ok
}

func (c *chunkState) epochOrdered(r core.StrandID) bool {
	if c.ctx.Epoch == nil {
		return false
	}
	if c.epochValid && c.epochSrc == r {
		return c.epochOK
	}
	ok := c.ctx.Epoch.EpochOrdered(r, c.s)
	c.epochValid, c.epochSrc, c.epochOK = true, r, ok
	return ok
}

func (c *chunkState) pageAt(pn uint64) *page {
	if c.lastPage != nil && c.lastPN == pn {
		c.pageCacheHits++
		return c.lastPage
	}
	p := c.h.pageForShared(pn)
	c.lastPN, c.lastPage = pn, p
	return p
}

// readRange is the per-chunk mirror of History.ReadRange's segment loop,
// including both epoch fast paths. Chunks partition the range, so the
// per-word stamps are worker-exclusive like the words themselves.
func (c *chunkState) readRange(addr uint64, words int) {
	c.reads += uint64(words)
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		p := c.pageAt(addr >> PageBits)
		ws := p.w[slot : slot+n]
		for i := range ws {
			w := &ws[i]
			switch {
			case w.lastWriter == c.s:
				c.ownedSkips++ // epoch fast path: s reads its own last write
			case w.lastReader == c.s:
				c.readSharedSkips++ // read epoch: s's own stamp, still proven
			default:
				c.readWordSlow(w, p, addr+uint64(i))
			}
		}
		words -= n
		if words == 0 {
			return
		}
		addr += uint64(n)
	}
}

// readWordSlow mirrors History.readWordSlow — sampler consult included —
// with worker-local memo and counters and a locked arena path.
func (c *chunkState) readWordSlow(w *word, p *page, addr uint64) {
	if w.lastWriter != core.NoStrand {
		if r := w.lastReader; r != core.NoStrand && c.epochOrdered(r) {
			c.epochHits++ // stamp verdict transfer: no writer query
		} else if c.h.smp.on && !c.sampleSlow(p, addr) {
			// Unsampled: fall through to the install below.
		} else if !c.precedes(w.lastWriter) {
			c.events = append(c.events, parEvent{addr, Racer{Prev: w.lastWriter, PrevWrite: true}})
			return // racy read is not appended (reference protocol), not stamped
		}
	}
	w.lastReader = c.s
	if w.reader0 == core.NoStrand {
		w.reader0 = c.s
		c.readerAppends++
		return
	}
	if w.reader0 == c.s {
		return // same strand re-reading between writes
	}
	c.appendSpill(w)
}

// appendSpill mirrors History.appendSpill under the spill mutex. The word
// and its slot are worker-exclusive; the lock covers arena growth and the
// free list, which every worker shares.
func (c *chunkState) appendSpill(w *word) {
	c.h.spillMu.Lock()
	appended, inflated := c.h.spillReader(w, c.s)
	c.h.spillMu.Unlock()
	if appended {
		c.readerAppends++
	}
	if inflated {
		c.epochInflations++
	}
}

// writeRange is the per-chunk mirror of History.WriteRange's segment loop.
func (c *chunkState) writeRange(addr uint64, words int) {
	c.writes += uint64(words)
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		p := c.pageAt(addr >> PageBits)
		ws := p.w[slot : slot+n]
		for i := range ws {
			w := &ws[i]
			if w.reader0 == core.NoStrand && (w.lastWriter == c.s || w.lastWriter == core.NoStrand) {
				w.lastWriter = c.s
				c.ownedSkips++
			} else {
				c.writeSlow(w, p, addr+uint64(i))
			}
		}
		words -= n
		if words == 0 {
			return
		}
		addr += uint64(n)
	}
}

// writeSlow mirrors History.writeSlow, including the post-race install
// and the sampler consult (an unsampled write installs without querying).
func (c *chunkState) writeSlow(w *word, p *page, addr uint64) {
	if c.h.smp.on && !c.sampleSlow(p, addr) {
		c.installWriter(w)
		return
	}
	if prev := w.lastWriter; prev != core.NoStrand && prev != c.s && !c.precedes(prev) {
		c.installWriter(w)
		c.events = append(c.events, parEvent{addr, Racer{Prev: prev, PrevWrite: true}})
		return
	}
	r0, more := w.reader0, []core.StrandID(nil)
	if r0&spillFlag != 0 {
		c.h.spillMu.Lock()
		r0, more = c.h.readers(w) // this slot is only mutated by this worker
		c.h.spillMu.Unlock()
	}
	if r0 != core.NoStrand && r0 != c.s && !c.precedes(r0) {
		c.installWriter(w)
		c.events = append(c.events, parEvent{addr, Racer{Prev: r0, PrevWrite: false}})
		return
	}
	for _, r := range more {
		if r != c.s && !c.precedes(r) {
			c.installWriter(w)
			c.events = append(c.events, parEvent{addr, Racer{Prev: r, PrevWrite: false}})
			return
		}
	}
	c.installWriter(w)
}

// installWriter mirrors History.installWriter with a locked deflation;
// the read-epoch stamp dies with the reader list (its verdict was proven
// against the previous writer), and an inflated word's arena slot returns
// to the free list.
func (c *chunkState) installWriter(w *word) {
	if w.reader0 != core.NoStrand {
		if w.reader0&spillFlag != 0 {
			c.h.spillMu.Lock()
			c.h.deflate(w)
			c.h.spillMu.Unlock()
			c.epochDeflations++
		}
		w.reader0 = core.NoStrand
		w.lastReader = core.NoStrand
		c.readerFlushes++
	}
	w.lastWriter = c.s
}

// touchRange is the per-chunk mirror of TouchRange: a pure checksum, so
// chunk sums add up to the serial result.
func (c *chunkState) touchRange(addr uint64, words int) {
	var sum uint64
	for ; words > 0; words-- {
		sum += (addr >> PageBits) ^ (addr & pageMask)
		addr++
	}
	c.touched += sum
}

// pageForShared returns the page holding pn on the shared (worker-pool)
// path, materializing it under a stripe lock on first touch. A missing
// directory node is created under dirMu — cheap (once per dirSize pages);
// ensureShared normally pre-grows them before a fan-out.
func (h *History) pageForShared(pn uint64) *page {
	if di := pn >> dirBits; di < maxDirs {
		slab := *h.dirs.Load()
		if di >= uint64(len(slab)) || slab[di] == nil {
			h.dirMu.Lock()
			slab = h.growDirs(di)
			h.dirMu.Unlock()
		}
		e := &slab[di][pn&dirMask]
		if p := e.Load(); p != nil {
			return p
		}
		mu := &h.stripes[pn%pageStripes]
		mu.Lock()
		p := e.Load()
		if p == nil {
			if h.faults.Fire(faultinject.PageFail) {
				mu.Unlock()
				panic(faultinject.Panic{Point: faultinject.PageFail})
			}
			p = new(page)
			e.Store(p)
			atomic.AddUint64(&h.touchedPages, 1)
		}
		mu.Unlock()
		return p
	}
	// Overflow pages (addresses the dense allocator never produces) are
	// created and read under dirMu on this path.
	h.dirMu.Lock()
	if h.overflow == nil {
		h.overflow = make(map[uint64]*page)
	}
	p := h.overflow[pn]
	if p == nil {
		if h.faults.Fire(faultinject.PageFail) {
			h.dirMu.Unlock()
			panic(faultinject.Panic{Point: faultinject.PageFail})
		}
		p = new(page)
		h.overflow[pn] = p
		atomic.AddUint64(&h.touchedPages, 1)
	}
	h.dirMu.Unlock()
	return p
}

// ensureShared pre-grows the page table for a fan-out over
// [addr, addr+words), so workers rarely take pageForShared's slow path.
func (h *History) ensureShared(addr uint64, words int) {
	first := addr >> PageBits
	last := (addr + uint64(words) - 1) >> PageBits
	h.dirMu.Lock()
	for di := first >> dirBits; di <= last>>dirBits && di < maxDirs; di++ {
		h.growDirs(di)
	}
	h.dirMu.Unlock()
	if last>>dirBits >= maxDirs {
		for pn := first; pn <= last; pn++ {
			if pn>>dirBits >= maxDirs {
				h.pageFor(pn)
			}
		}
	}
	// The shared last-page cache is not maintained by workers; drop it so
	// a later serial access cannot see a stale mapping (it cannot today —
	// pages are never replaced — but the invalidation is cheap and keeps
	// the invariant local).
	h.lastPage = nil
}

// fanOut splits [addr, addr+words) into pool-chunk-sized jobs, runs them
// across the pool with the calling goroutine participating, then folds
// the worker-local counters and the buffered race events — in chunk (=
// address) order — into sink, which the caller folds into h.
func (h *History) fanOut(op int, addr uint64, words int, s core.StrandID, ctx *Ctx, p *Pool, sink *chunkState) {
	nchunks := (words + p.chunk - 1) / p.chunk
	jobs := make([]chunkJob, nchunks)
	var done sync.WaitGroup
	done.Add(nchunks)
	a, left := addr, words
	for i := range jobs {
		n := p.chunk
		if n > left {
			n = left
		}
		jobs[i] = chunkJob{
			cs:   chunkState{h: h, ctx: ctx, s: s},
			op:   op,
			addr: a,
			n:    n,
			done: &done,
		}
		a += uint64(n)
		left -= n
	}
	// The coordinator is a full member of the pool: it offers each job to
	// the channel but runs it inline when the workers are saturated, then
	// keeps draining until the queue is dry. On a single-CPU machine this
	// degrades to the serial loop plus channel overhead rather than idle
	// blocking.
	for i := range jobs {
		select {
		case p.tasks <- &jobs[i]:
		default:
			jobs[i].run()
			done.Done()
		}
	}
	for {
		select {
		case j := <-p.tasks:
			j.run()
			j.done.Done()
			continue
		default:
		}
		break
	}
	done.Wait()
	// Surface a worker-side panic (a detector bug or an injected fault) on
	// the coordinator, where the pipeline's recover shell can convert it
	// into a structured failure. Every job has completed, so the pool is
	// quiescent and nothing leaks.
	for i := range jobs {
		if r := jobs[i].panicked; r != nil {
			panic(r)
		}
	}
	sink.parRanges++
	sink.parChunks += uint64(nchunks)
	for i := range jobs {
		sink.addCounters(&jobs[i].cs)
		sink.events = append(sink.events, jobs[i].cs.events...)
	}
}

// foldInto adds the sink counters of one completed fan-out into the
// History's totals.
func (h *History) foldInto(cs *chunkState) {
	h.reads += cs.reads
	h.writes += cs.writes
	h.readerAppends += cs.readerAppends
	h.readerFlushes += cs.readerFlushes
	h.pageCacheHits += cs.pageCacheHits
	h.ownedSkips += cs.ownedSkips
	h.readSharedSkips += cs.readSharedSkips
	h.memoHits += cs.memoHits
	h.epochHits += cs.epochHits
	h.epochInflations += cs.epochInflations
	h.epochDeflations += cs.epochDeflations
	h.parRanges += cs.parRanges
	h.parChunks += cs.parChunks
	h.sampledAccesses += cs.sampledAccesses
	h.budgetSkips += cs.budgetSkips
	h.touched += cs.touched
}

// ReadRangePar is ReadRange fanned out across pool p. Ranges below the
// fan-out threshold (or a nil pool) take the exact serial path. The race
// events delivered to ctx are identical, in content and order, to the
// serial path's.
func (h *History) ReadRangePar(addr uint64, words int, s core.StrandID, ctx *Ctx, p *Pool) {
	if p == nil || words < 2*p.chunk {
		h.ReadRange(addr, words, s, ctx)
		return
	}
	h.ensureShared(addr, words)
	var sink chunkState
	h.fanOut(opRead, addr, words, s, ctx, p, &sink)
	h.foldInto(&sink)
	for _, ev := range sink.events {
		ctx.OnReadRace(ev.addr, ev.racer, s)
	}
}

// WriteRangePar is WriteRange fanned out across pool p; see ReadRangePar.
func (h *History) WriteRangePar(addr uint64, words int, s core.StrandID, ctx *Ctx, p *Pool) {
	if p == nil || words < 2*p.chunk {
		h.WriteRange(addr, words, s, ctx)
		return
	}
	h.ensureShared(addr, words)
	var sink chunkState
	h.fanOut(opWrite, addr, words, s, ctx, p, &sink)
	h.foldInto(&sink)
	for _, ev := range sink.events {
		ctx.OnWriteRace(ev.addr, ev.racer, s)
	}
}

// TouchRangePar is TouchRange fanned out across pool p. The checksum is a
// sum of per-word terms, so chunk sums reassociate to the serial result.
func (h *History) TouchRangePar(addr uint64, words int, p *Pool) {
	if p == nil || words < 2*p.chunk {
		h.TouchRange(addr, words)
		return
	}
	var sink chunkState
	h.fanOut(opTouch, addr, words, core.NoStrand, nil, p, &sink)
	h.foldInto(&sink)
}
