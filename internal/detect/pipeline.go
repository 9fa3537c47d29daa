// The asynchronous detection pipeline: sealed batches are checked off the
// engine goroutine while the program keeps executing.
//
// The pipeline is one consumer goroutine that takes items in seal order,
// applies each batch's pending construct mutations (up to the version the
// batch was recorded under) and checks it. Seal-order processing is what
// keeps the report stream byte-identical to a serial run; verdicts,
// counters and report order are pinned by the Workers equivalence tests.
//
// # Fail-closed operation
//
// The consumer runs its per-batch work inside a recover shell: a panic —
// a detector bug or an injected fault — is converted into a structured
// PipelineError that poisons the engine (subsequent hooks abort the run
// with it) and flips the consumer into drain mode: remaining items are
// recycled unchecked until the engine closes intake. Nothing blocks
// forever: the engine's submit path selects against the failure latch,
// the versioned mutation log is failed so Record never waits on a dead
// applier, and an optional watchdog (Config.StallTimeout) converts a
// silent stall into the same structured teardown. The fault matrix in
// the progen package drives every injected fault class through this
// machinery and asserts the run either matches serial verdicts exactly
// or returns one PipelineError with no goroutine left behind.
package detect

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"futurerd/internal/core"
	"futurerd/internal/event"
)

// discCheck is a deferred CheckStructured discipline query: instead of
// draining the pipeline at every get, the engine enqueues the query and
// the back-end answers it from the versioned snapshot at the get's
// version, in stream order.
type discCheck struct {
	futFn   core.FnID
	creator core.StrandID
	getter  core.StrandID
	touches int
}

// workItem is one unit of the pipeline stream: a sealed batch (possibly
// empty — a version-bearing nudge), optionally carrying a deferred
// discipline check.
type workItem struct {
	b    *event.Batch
	disc *discCheck
}

// pipeline is the asynchronous detection back-end: one consumer goroutine
// checking sealed batches in seal order.
type pipeline struct {
	e       *Engine
	items   chan workItem
	stopped sync.Once
	done    chan struct{} // closed when the consumer exits
	nextSeq uint64        // engine goroutine only (stamped at submit)

	// failCh is the pipeline's failure latch, closed exactly once by the
	// first fail(). Every blocking hand-off in the pipeline selects
	// against it so no goroutine can wait forever on a stage that died.
	failCh   chan struct{}
	failOnce sync.Once

	// Per-stage heartbeats (seal-order item counts): hbSealed advances
	// when the engine submits an item, hbDispatched when the consumer
	// picks it up, hbChecked when it is fully processed (checked,
	// answered, or discarded on the drain path). hbSealed == hbChecked
	// means the pipeline is quiescent. The watchdog fires when none of
	// these moves for Config.StallTimeout while work is outstanding.
	hbSealed     atomic.Uint64
	hbDispatched atomic.Uint64
	hbChecked    atomic.Uint64

	// testHook, when non-nil, runs on the consumer goroutine before each
	// batch that carries no discipline check is processed; pipeline tests
	// use it to hold batches in flight.
	testHook func(*event.Batch)
}

func newPipeline(e *Engine) *pipeline {
	p := &pipeline{
		e:      e,
		items:  make(chan workItem, 16),
		done:   make(chan struct{}),
		failCh: make(chan struct{}),
	}
	go p.run()
	if d := e.cfg.StallTimeout; d > 0 {
		go p.watchdog(d)
	}
	return p
}

// progress snapshots the heartbeat counters. Safe from any goroutine.
func (p *pipeline) progress() PipelineProgress {
	return PipelineProgress{
		Sealed:     p.hbSealed.Load(),
		Dispatched: p.hbDispatched.Load(),
		Checked:    p.hbChecked.Load(),
	}
}

// fail records the pipeline's first failure: the engine is poisoned (its
// next hook aborts the run with pe, and the versioned log stops blocking
// its recorder) and the failure latch is closed so every pipeline
// hand-off unblocks into drain mode. Later failures are dropped — the
// first one is the diagnosis.
func (p *pipeline) fail(pe *PipelineError) {
	p.failOnce.Do(func() {
		p.e.poisonWith(pe)
		close(p.failCh)
	})
}

// failed reports (without blocking) whether the failure latch is closed.
func (p *pipeline) failed() bool {
	select {
	case <-p.failCh:
		return true
	default:
		return false
	}
}

// guard runs fn and recovers any panic into a structured PipelineError
// (nil when fn completes).
func (p *pipeline) guard(stage string, b *event.Batch, fn func()) (pe *PipelineError) {
	defer func() {
		if r := recover(); r != nil {
			pe = p.e.newPipelineError(stage, b, r)
		}
	}()
	fn()
	return nil
}

// submit hands one item to the pipeline, stamping its sequence number.
// Engine goroutine only. The send selects against the failure latch so a
// dead pipeline can never block the engine; the dropped item is
// irrelevant because the poisoned engine aborts at its next hook.
func (p *pipeline) submit(it workItem) {
	p.nextSeq++
	it.b.Seq = p.nextSeq
	p.hbSealed.Store(p.nextSeq)
	select {
	case p.items <- it:
	case <-p.failCh:
		event.Recycle(it.b)
	}
}

// stop closes intake and joins every pipeline goroutine — on the success
// path after all items are checked, on the failure path after the drain
// discards what remains. Idempotent, nil-safe; engine goroutine only
// (the only sender on items).
func (p *pipeline) stop() {
	if p == nil {
		return
	}
	p.stopped.Do(func() {
		close(p.items)
		<-p.done
	})
}

// run is the consumer loop: items are processed in seal order, each
// batch's mutations applied just before it is checked. After a failure —
// its own recovered panic or an external one (watchdog) — the loop
// drains remaining items without touching the relation, so stop() always
// joins.
func (p *pipeline) run() {
	defer close(p.done)
	e := p.e
	for it := range p.items {
		p.hbDispatched.Add(1)
		if !p.failed() {
			it := it
			if pe := p.guard("consumer", it.b, func() {
				if it.disc == nil && p.testHook != nil {
					p.testHook(it.b)
				}
				e.processBatch(it.b)
				if it.disc != nil {
					e.evalDisc(it.disc)
				}
			}); pe != nil {
				p.fail(pe)
			}
		}
		event.Recycle(it.b)
		p.hbChecked.Add(1)
	}
}

// watchdog converts a silent pipeline stall into a structured teardown:
// it samples the heartbeat counters at a quarter of the configured
// timeout and fails the pipeline when nothing has advanced for a full
// timeout while work is outstanding (sealed > checked). It exits with
// the pipeline, or as soon as any stage has already failed.
func (p *pipeline) watchdog(timeout time.Duration) {
	tick := timeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var last PipelineProgress
	var stuck time.Duration
	for {
		select {
		case <-p.done:
			return
		case <-p.failCh:
			return
		case <-t.C:
		}
		cur := p.progress()
		if cur != last {
			last, stuck = cur, 0
			continue
		}
		if cur.Sealed == cur.Checked {
			stuck = 0 // quiescent: nothing outstanding to stall on
			continue
		}
		stuck += tick
		if stuck >= timeout {
			p.fail(&PipelineError{Stage: "watchdog", Progress: cur, Cause: ErrStalled})
			return
		}
	}
}

// evalDisc answers one deferred discipline check against the relation at
// the get's version. Runs on the engine goroutine in synchronous mode and
// on the consumer goroutine in asynchronous mode.
func (e *Engine) evalDisc(d *discCheck) {
	if d.touches == 2 {
		e.violate("multi-touch", fmt.Sprintf(
			"future fn %d touched more than once (second get at strand %d)",
			d.futFn, d.getter))
	}
	if !e.reach.Precedes(d.creator, d.getter) {
		e.violate("unordered-create-get", fmt.Sprintf(
			"create at strand %d does not sequentially precede get at strand %d",
			d.creator, d.getter))
	}
}
