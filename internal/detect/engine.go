package detect

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
	"futurerd/internal/event"
	"futurerd/internal/faultinject"
	"futurerd/internal/graph"
	"futurerd/internal/shadow"
)

// ErrFutureNotReady is wrapped into Report.Err when a get_fut runs before
// its future was created or finished: under depth-first eager execution
// this means the original program can deadlock (§2, forward-pointing
// futures), so detection stops at that point, as in the paper.
var ErrFutureNotReady = errors.New("get_fut on a future that has not completed; " +
	"the program is not forward-pointing and could deadlock")

// errMemFullNeedsMode is wrapped into Report.Err when full memory
// detection is requested with detection disabled: there is no reachability
// algorithm to decide races against.
var errMemFullNeedsMode = errors.New(
	"Config.Mem=MemFull requires a detection mode (use MemInstr for instrumentation-only runs)")

// errBadSampling is wrapped into Report.Err when Config.Sampling is
// malformed; rejecting up front keeps a typo'd rate from silently running
// full (or no) detection.
var errBadSampling = errors.New(
	"Config.Sampling.Rate must be in [0, 1] (0 disables sampling) and Budget must be >= 0")

// engineFailure carries an engine error through panic/recover without
// masking genuine panics from user code.
type engineFailure struct{ err error }

// Engine is the sequential depth-first eager detection engine.
type Engine struct {
	cfg   Config
	st    *core.StrandTable
	reach core.Reach
	hist  *shadow.History

	detecting bool // Mode != ModeNone
	mem       MemLevel

	nextStrand core.StrandID
	nextFn     core.FnID

	// sctx is the shadow-layer context prototype: the reachability
	// structure (queried directly, no per-query closure) and the race
	// sinks (allocated once so the hot path allocates nothing). It is
	// immutable after construction; processBatch copies it and fills in
	// the batch's own generation, so the back-end goroutine never reads
	// engine-mutated state.
	sctx shadow.Ctx

	// gen is the parallel-construct generation, bumped at every construct
	// — exactly when the reachability relation can mutate or the current
	// strand changes — so the shadow layer's memoized Precedes verdicts
	// and read-shared stamps, keyed on (Gen, strand), can never outlive
	// the relation they were computed under. Engine goroutine only;
	// batches carry their generation to the back-end.
	gen uint64

	// vr, when non-nil (detecting with an asynchronous back-end), is the
	// versioned view of the reachability relation: constructs record
	// their mutations here instead of applying them inline, sealed
	// batches carry the version they were recorded under, and the
	// back-end consumer applies pending mutations up to each batch's
	// version before checking it. Constructs therefore no longer block on
	// back-end drain; the engine may run up to the construct-ahead window
	// ahead of detection.
	vr *core.Versioned

	// nudgeAt is the pending-mutation threshold at which the engine hands
	// the back-end an empty version-bearing batch, keeping the mutation
	// log drainable through construct-dense stretches with no memory
	// traffic (the back-end only applies mutations when it processes a
	// batch). submittedVersion is the relation version carried by the
	// last batch handed to the back-end; mutations at or below it need no
	// nudge.
	nudgeAt          int
	submittedVersion uint64

	// pool, when non-nil, is the shadow worker pool bulk ranges fan out
	// across (Config.Workers > 1 and a concurrent-query-safe algorithm).
	pool *shadow.Pool

	// evStats counts batch-pipeline traffic (Stats.Event) at seal time on
	// the engine goroutine, so it is deterministic.
	evStats event.Stats

	// batch is the open access-event batch: Read/Write append to it
	// (coalescing contiguous same-kind accesses into ranges) and the
	// whole batch is handed to the detection back-end at the next
	// parallel construct, or earlier when it reaches batchOps ops. Nil
	// when memory accesses are ignored (Mem == MemOff).
	batch    *event.Batch
	batchOps int

	// be, when non-nil, is the asynchronous detection back-end: sealed
	// batches are checked off the engine goroutine while the program
	// keeps executing — across parallel constructs too, because each
	// batch carries the version of the reachability relation it was
	// recorded under and the back-end applies construct mutations (from
	// vr) so every in-flight check observes a snapshot answering its
	// queries exactly as the batch's own version would: one consumer
	// goroutine in seal order (see pipeline.go).
	be *pipeline

	// faults is the run's fault-injection plan (nil in production: every
	// probe is one nil check).
	faults *faultinject.Plan

	// poisoned is the fail-closed latch: the first pipeline failure
	// stores its PipelineError here (and fails the versioned log so the
	// engine can never block on a dead applier); every subsequent
	// Read/Write/Begin*/End*/Sync/GetFut hook aborts the run with that
	// error instead of feeding a broken pipeline. Written by pipeline
	// goroutines, read by the engine goroutine.
	poisoned atomic.Pointer[PipelineError]

	labels map[core.FnID]string

	// violMu guards violations: Verify-mode reachability mismatches are
	// recorded from the detection back-end goroutine, while discipline
	// violations arrive from the engine goroutine.
	violMu sync.Mutex

	// The race sink. raceMu guards it (and the labels map) because with
	// Workers > 1 races are reported from the detection back-end
	// goroutine while the engine goroutine keeps executing; the single
	// back-end consumer keeps delivery in serial report order. raceSeen
	// maps a racy address to the signature of the recorded strand pair so
	// observations of a different pair at the same address can be counted
	// (droppedPairs) instead of silently vanishing.
	raceMu     sync.Mutex
	races      []Race
	raceSeen   map[uint64]uint64
	raceCount  uint64
	maxRaces   int
	truncRaces uint64
	dropPairs  uint64

	violations []Violation
	dropViol   uint64

	spawns, creates, gets, syncs uint64
	err                          error
}

// NewEngine builds an engine for one run. Engines are single-use.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:       cfg,
		detecting: cfg.Mode != ModeNone,
		mem:       cfg.Mem,
		maxRaces:  cfg.MaxRaces,
		faults:    cfg.Faults,
	}
	if e.maxRaces <= 0 {
		e.maxRaces = DefaultMaxRaces
	}
	if s := cfg.Sampling; s.Rate < 0 || s.Rate > 1 || s.Rate != s.Rate || s.Budget < 0 {
		// (Rate != Rate rejects NaN.) Fail the run closed before any
		// pipeline state exists; Run returns the report with this error.
		e.err = fmt.Errorf("detect: %w", errBadSampling)
		e.detecting = false
		return e
	}
	if !e.detecting {
		switch cfg.Mem {
		case MemFull:
			// Full detection needs a reachability algorithm to query;
			// reject cleanly instead of nil-panicking on the first access.
			e.err = fmt.Errorf("detect: %w", errMemFullNeedsMode)
		case MemInstr:
			// Instrumentation-only is meaningful without detection (it
			// measures pure hook overhead); it needs the history for its
			// checksum state. The worker pool applies here too, so the
			// instrumentation baseline stays comparable to detecting runs
			// configured with the same Workers.
			e.hist = shadow.NewHistory()
			e.hist.SetFaults(cfg.Faults)
			if cfg.Workers > 1 {
				e.pool = shadow.NewPool(cfg.Workers, cfg.WorkerChunk)
			}
		}
		e.initPipeline(cfg)
		return e
	}
	e.st = core.NewStrandTable(1024)
	switch cfg.Mode {
	case ModeSPBags:
		e.reach = core.NewSPBags(e.st)
	case ModeMultiBags:
		e.reach = core.NewMultiBags(e.st)
	case ModeMultiBagsPlus:
		e.reach = core.NewMultiBagsPlus(e.st)
	case ModeVectorClocks:
		e.reach = core.NewVectorClocks(e.st)
	case ModeOracle:
		e.reach = graph.NewRecorder(e.st)
	default:
		panic(fmt.Sprintf("detect: unknown mode %v", cfg.Mode))
	}
	if cfg.Verify && cfg.Mode != ModeOracle {
		if mbp, ok := e.reach.(*core.MultiBagsPlus); ok {
			mbp.CheckInvariants = true
		}
		e.reach = &verifyReach{
			algo:   e.reach,
			oracle: graph.NewRecorder(e.st),
			eng:    e,
		}
	}
	if cfg.Mem != MemOff {
		e.hist = shadow.NewHistory()
		e.hist.SetFaults(cfg.Faults)
		if cfg.Mem == MemFull && cfg.Sampling.Rate > 0 {
			// Tier-1 sampling sits between the shadow layer's free skips
			// and the protocol; it only exists where the protocol runs.
			e.hist.SetSampling(cfg.Sampling.Rate, cfg.Sampling.Budget, cfg.Sampling.Seed)
		}
	}
	if cfg.Workers > 1 && cfg.Mem != MemOff {
		// The pool only engages when every Precedes the workers can make
		// is safe to run concurrently between constructs. MemInstr makes
		// no queries, so any mode qualifies there.
		qc, ok := e.reach.(core.QueryConcurrent)
		if cfg.Mem == MemInstr || (ok && qc.ConcurrentPrecedesSafe()) {
			e.pool = shadow.NewPool(cfg.Workers, cfg.WorkerChunk)
		}
	}
	e.raceSeen = make(map[uint64]uint64)
	e.sctx.Reach = e.reach
	// The carried-forward read epoch engages only when the algorithm
	// offers verdict transfer. The oracle recorder and the Verify
	// cross-check wrapper don't, so verified runs exercise the full
	// protocol on every stamped word — the differential arms compare
	// epoch-on runs against them.
	if ec, ok := e.reach.(core.EpochConcurrent); ok {
		e.sctx.Epoch = ec
	}
	e.sctx.OnReadRace = func(addr uint64, r shadow.Racer, cur core.StrandID) {
		e.reportRace(addr, r.Prev, cur, r.PrevWrite, false)
	}
	e.sctx.OnWriteRace = func(addr uint64, r shadow.Racer, cur core.StrandID) {
		e.reportRace(addr, r.Prev, cur, r.PrevWrite, true)
	}
	e.initPipeline(cfg)
	return e
}

// initPipeline sets up the access-event batch layer: every engine that
// observes memory accesses batches them, and Workers > 1 additionally
// runs batch detection asynchronously off the engine goroutine,
// overlapping it with continued program execution. An asynchronous
// detecting engine also versions its reachability relation so
// constructs need not block on back-end drain.
func (e *Engine) initPipeline(cfg Config) {
	if e.hist == nil {
		return
	}
	e.batch = event.New()
	e.batchOps = cfg.BatchOps
	if e.batchOps <= 0 {
		e.batchOps = event.MaxOps
	}
	if cfg.Workers > 1 {
		if e.detecting {
			e.vr = core.NewVersioned(e.reach, cfg.ConstructAhead)
			e.nudgeAt = e.vr.Window() / 2
			if e.nudgeAt < 1 {
				e.nudgeAt = 1
			}
		}
		e.be = newPipeline(e)
	}
}

// mutate applies one construct mutation to the reachability relation:
// inline when the pipeline is synchronous, recorded into the versioned log
// (for the back-end to apply in batch order) when it is not.
func (e *Engine) mutate(m core.Mut) {
	if e.vr == nil {
		m.ApplyTo(e.reach)
		return
	}
	// The log must stay drainable before Record can block on the window,
	// and the back-end only applies mutations when it processes a
	// version-bearing batch. Normally the batches themselves cover that —
	// submittedVersion tracks the version carried by the last submitted
	// batch — so a nudge (an empty batch at the current version) is only
	// needed on construct-dense stretches whose mutations outpace real
	// traffic. The guard is lock-free and rate-limited to one nudge per
	// nudgeAt mutations: applied never exceeds submittedVersion while the
	// back-end runs, so staying within nudgeAt of the last submitted
	// version guarantees the applier can always bring the lag back under
	// the window, and Record can never block for good. Submitting may
	// block briefly on the batch channel, which is ordinary back-pressure.
	if rec := e.vr.Recorded(); rec-e.submittedVersion >= uint64(e.nudgeAt) {
		b := event.New()
		b.Gen = e.gen
		b.Version = rec
		e.submittedVersion = rec
		e.be.submit(workItem{b: b})
	}
	e.vr.Record(m)
}

// Run executes root under the engine and returns the report.
func (e *Engine) Run(root func(*Task)) *Report {
	if e.err != nil {
		// The configuration was rejected at construction; do not run user
		// code under hooks that cannot work.
		return e.report()
	}
	t := &Task{ex: e}
	// Release the range workers on every exit path, including a genuine
	// user panic that the recover below re-raises (Close is idempotent
	// and nil-safe; report() also closes for the error-config path).
	// The detection back-end stops first (LIFO defers): it drains its
	// in-flight batches, which may still be fanning out across the pool.
	defer e.pool.Close()
	defer e.be.stop()
	if e.detecting {
		t.fn = e.newFn()
		t.strand = e.newStrand(t.fn)
		e.mutate(core.Mut{Op: core.MutInit, InitFn: t.fn, InitS: t.strand})
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if f, ok := r.(engineFailure); ok {
					e.err = f.err
					return
				}
				panic(r)
			}
		}()
		root(t)
		e.Sync(t) // implicit sync at the end of main
	}()
	return e.report()
}

func (e *Engine) report() *Report {
	e.seal()    // flush any still-open batch
	e.be.stop() // quiesce the detection back-end (nil-safe)
	if e.batch != nil {
		// Return the (now necessarily empty) open batch to the pool so a
		// run checks exactly as many batches back in as it took out —
		// event.Live() deltas are the leak test's oracle.
		event.Recycle(e.batch)
		e.batch = nil
	}
	if e.err == nil {
		// A pipeline failure the engine never tripped over (it poisoned
		// after the last hook ran) still fails the run closed.
		if pe := e.poisoned.Load(); pe != nil {
			e.err = pe
		}
	}
	if e.vr != nil {
		e.vr.Drain() // post-run mutation drain; no-op after a failure
	}
	e.pool.Close() // release the range workers (nil-safe)
	if v, ok := e.reach.(*verifyReach); ok {
		if mbp, ok := v.algo.(*core.MultiBagsPlus); ok {
			for _, s := range mbp.Violations {
				e.violate("structural-invariant", s)
			}
		}
	}
	// Resolve race labels against the final label map: the back-end may
	// have recorded a race before a Label call it logically follows (a
	// batch can flush mid-window), so the report is labeled here, after
	// the run, where the outcome is deterministic for any pipeline mode.
	for i := range e.races {
		r := &e.races[i]
		r.PrevLabel = e.labels[e.st.FnOf(r.Prev)]
		r.CurrLabel = e.labels[e.st.FnOf(r.Curr)]
	}
	rep := &Report{
		Races:      e.races,
		Violations: e.violations,
		Err:        e.err,
		Algorithm:  e.cfg.Mode.String(),
	}
	rep.Stats = Stats{
		Spawns: e.spawns, Creates: e.creates, Gets: e.gets, Syncs: e.syncs,
		RaceCount:      e.raceCount,
		TruncatedRaces: e.truncRaces, DroppedPairs: e.dropPairs,
		TruncatedViolations: e.dropViol,
	}
	if e.detecting {
		rep.Stats.Strands = e.st.Len()
		rep.Stats.Functions = int(e.nextFn)
		rep.Stats.Reach = e.reach.Stats()
	}
	if e.hist != nil {
		rep.Stats.Shadow = e.hist.Stats()
		rep.Stats.Event = e.evStats
	}
	return rep
}

func (e *Engine) fail(err error) { panic(engineFailure{err}) }

// poisonWith latches the first pipeline failure: the error is stored for
// every later hook to trip over, and the versioned mutation log is failed
// so the engine can never block in Record waiting for an applier that
// died. Idempotent; safe from any goroutine.
func (e *Engine) poisonWith(pe *PipelineError) {
	if e.poisoned.CompareAndSwap(nil, pe) {
		if e.vr != nil {
			e.vr.Fail()
		}
	}
}

// checkPoison aborts the run with the latched pipeline failure, if any.
// Called at the head of every execution hook, so a poisoned engine
// surfaces its error at the next instrumented operation instead of
// deadlocking against a dead back-end.
func (e *Engine) checkPoison() {
	if pe := e.poisoned.Load(); pe != nil {
		e.fail(pe)
	}
}

// newPipelineError builds the structured failure for a recovered panic r
// in the named stage, snapshotting the batch in hand and the pipeline's
// progress counters.
func (e *Engine) newPipelineError(stage string, b *event.Batch, r any) *PipelineError {
	pe := &PipelineError{Stage: stage, Batch: batchDiag(b)}
	if b != nil {
		pe.Seq = b.Seq
	}
	if err, ok := r.(error); ok {
		pe.Cause = err
	} else {
		pe.Cause = fmt.Errorf("panic: %v", r)
	}
	if e.be != nil {
		pe.Progress = e.be.progress()
	}
	return pe
}

// checkBatchInline is processBatch on the synchronous pipeline (no
// back-end goroutine), shelled so a detection-side panic — injected or
// real — poisons the engine instead of unwinding through user frames as
// a raw panic. No user code runs below this frame, so the recover cannot
// mask a user panic.
func (e *Engine) checkBatchInline(b *event.Batch) {
	defer func() {
		if r := recover(); r != nil {
			e.poisonWith(e.newPipelineError("inline", b, r))
		}
	}()
	e.processBatch(b)
}

// DAG runs root under the oracle recorder and returns the recorded
// computation dag in Graphviz DOT format. Useful for visualizing small
// programs; the dag has one node per strand.
func DAG(root func(*Task)) (string, error) {
	e := NewEngine(Config{Mode: ModeOracle})
	rep := e.Run(root)
	if rep.Err != nil {
		return "", rep.Err
	}
	return e.reach.(*graph.Recorder).DOT(), nil
}

func (e *Engine) newFn() core.FnID {
	e.nextFn++
	return e.nextFn
}

func (e *Engine) newStrand(fn core.FnID) core.StrandID {
	e.nextStrand++
	e.st.Add(e.nextStrand, fn)
	return e.nextStrand
}

// Label attaches a human-readable label to the current function instance
// of t (the task's whole body); races involving any of its strands carry
// it in the final report (resolved once the run completes, so a label
// applies to its function's races regardless of where in the body it was
// set). No-op when not detecting. raceMu orders the map write against
// the asynchronous back-end's best-effort label lookups for OnRace.
func (e *Engine) Label(t *Task, label string) {
	if !e.detecting {
		return
	}
	e.raceMu.Lock()
	defer e.raceMu.Unlock()
	if e.labels == nil {
		e.labels = make(map[core.FnID]string)
	}
	e.labels[t.fn] = label
}

// Spawn implements Executor.
func (e *Engine) Spawn(t *Task, f func(*Task)) {
	child := e.BeginSpawn(t)
	f(child)
	e.EndSpawn(t, child)
}

// BeginSpawn starts a spawned child without running a body: it seals the
// open access batch, records the fork with the reachability algorithm and
// returns the child task. Callers must pair it with EndSpawn after the
// child's events have been delivered. Task.Spawn is BeginSpawn + body +
// EndSpawn; streaming front-ends (internal/trace's iterative replay) call
// the pair directly so task nesting lives on their explicit stack instead
// of the Go call stack.
func (e *Engine) BeginSpawn(t *Task) *Task {
	e.checkPoison()
	e.seal()
	e.spawns++
	e.gen++
	if !e.detecting {
		return &Task{ex: e}
	}
	fork := t.strand
	childFn := e.newFn()
	childFirst := e.newStrand(childFn)
	cont := e.newStrand(t.fn)
	e.mutate(core.Mut{Op: core.MutSpawn, Spawn: core.SpawnRec{
		ParentFn: t.fn, ChildFn: childFn,
		Fork: fork, ChildFirst: childFirst, ContFirst: cont,
	}})
	child := &Task{ex: e, fn: childFn, strand: childFirst}
	child.born = spawnRec{childFn: childFn, fork: fork, childFirst: childFirst, cont: cont}
	return child
}

// EndSpawn completes a child started by BeginSpawn: the child's implicit
// function-end sync runs, its return is recorded, and the parent resumes
// on the continuation strand.
func (e *Engine) EndSpawn(t, child *Task) {
	if !e.detecting {
		return
	}
	e.Sync(child) // implicit sync at function end (seals the child's batch)
	r := child.born
	r.childLast = child.strand
	e.mutate(core.Mut{Op: core.MutReturn, Return: core.ReturnRec{
		Fn: child.fn, ParentFn: t.fn, Last: r.childLast,
	}})
	t.spawns = append(t.spawns, r)
	t.strand = r.cont
}

// Sync implements Executor: it decomposes the join into one binary join
// per outstanding child, innermost (most recently spawned) first.
func (e *Engine) Sync(t *Task) {
	e.checkPoison()
	e.seal()
	e.syncs++
	e.gen++
	if !e.detecting || len(t.spawns) == 0 {
		t.spawns = t.spawns[:0]
		return
	}
	cur := t.strand
	for i := len(t.spawns) - 1; i >= 0; i-- {
		r := t.spawns[i]
		j := e.newStrand(t.fn)
		e.mutate(core.Mut{Op: core.MutJoin, Join: core.JoinRec{
			Fn: t.fn, ChildFn: r.childFn,
			Fork: r.fork, ChildFirst: r.childFirst, ContFirst: r.cont,
			ChildLast: r.childLast, ContLast: cur, Join: j,
		}})
		cur = j
	}
	t.spawns = t.spawns[:0]
	t.strand = cur
}

// CreateFut implements Executor. Under eager execution the body runs to
// completion immediately; the continuation strand is still logically
// parallel with it.
func (e *Engine) CreateFut(t *Task, body func(*Task) any) *Fut {
	child, h := e.BeginFut(t)
	v := body(child)
	e.EndFut(t, child, h, v)
	return h
}

// BeginFut starts a future child without running a body, returning the
// child task and the (not yet completed) handle. Pair with EndFut; see
// BeginSpawn for the streaming-front-end rationale.
func (e *Engine) BeginFut(t *Task) (*Task, *Fut) {
	e.checkPoison()
	e.seal()
	e.creates++
	e.gen++
	if !e.detecting {
		return &Task{ex: e}, &Fut{}
	}
	creator := t.strand
	futFn := e.newFn()
	futFirst := e.newStrand(futFn)
	cont := e.newStrand(t.fn)
	e.mutate(core.Mut{Op: core.MutCreate, Create: core.CreateRec{
		ParentFn: t.fn, FutFn: futFn,
		Creator: creator, FutFirst: futFirst, ContFirst: cont,
	}})
	h := &Fut{fn: futFn, creatorStrand: creator}
	child := &Task{ex: e, fn: futFn, strand: futFirst}
	child.born = spawnRec{cont: cont}
	return child, h
}

// EndFut completes a future child started by BeginFut with value val: the
// child's implicit function-end sync runs, the handle is marked done, and
// the creator resumes on the continuation strand.
func (e *Engine) EndFut(t, child *Task, h *Fut, val any) {
	if !e.detecting {
		h.Complete(val)
		return
	}
	h.val = val
	e.Sync(child) // implicit sync at function end (seals the child's batch)
	h.last = child.strand
	h.done = true
	e.mutate(core.Mut{Op: core.MutReturn, Return: core.ReturnRec{
		Fn: h.fn, ParentFn: t.fn, Last: h.last,
	}})
	t.strand = child.born.cont
}

// GetFut implements Executor.
func (e *Engine) GetFut(t *Task, h *Fut) any {
	e.checkPoison()
	e.seal()
	e.gets++
	e.gen++
	if h == nil {
		e.fail(fmt.Errorf("%w (nil handle)", ErrFutureNotReady))
	}
	if !e.detecting {
		return h.val
	}
	if !h.done {
		e.fail(ErrFutureNotReady)
	}
	getter := t.strand
	h.touches++
	if e.cfg.CheckStructured {
		// The discipline query (creator sequentially precedes getter) must
		// see the relation at exactly this construct's version. The engine
		// no longer drains the back-end for it: with an asynchronous
		// pipeline the check is deferred — enqueued in stream order and
		// answered from the versioned snapshot once the back-end has
		// applied this version — because a violation is recorded, never
		// acted on, so nothing downstream needs the answer eagerly. The
		// synchronous pipeline's relation is always current and evaluates
		// inline.
		d := &discCheck{
			futFn:   h.fn,
			creator: h.creatorStrand,
			getter:  getter,
			touches: h.touches,
		}
		if e.be != nil {
			b := event.New()
			b.Strand = getter
			b.Gen = e.gen
			if e.vr != nil {
				b.Version = e.vr.Recorded()
				e.submittedVersion = b.Version
			}
			e.be.submit(workItem{b: b, disc: d})
		} else {
			e.evalDisc(d)
		}
	}
	cont := e.newStrand(t.fn)
	e.mutate(core.Mut{Op: core.MutGet, Get: core.GetRec{
		Fn: t.fn, FutFn: h.fn,
		Getter: getter, FutLast: h.last, Cont: cont,
		Creator: h.creatorStrand, Touch: h.touches,
	}})
	t.strand = cont
	return h.val
}

// MaxViolations bounds the violations collected in a report; the overflow
// is counted in Stats.TruncatedViolations instead of vanishing.
const MaxViolations = 256

func (e *Engine) violate(kind, detail string) {
	e.violMu.Lock()
	defer e.violMu.Unlock()
	if len(e.violations) < MaxViolations {
		e.violations = append(e.violations, Violation{Kind: kind, Detail: detail})
		return
	}
	e.dropViol++
}

// Read implements Executor: the access is appended to the open event
// batch (coalescing contiguous same-kind accesses into ranges), and the
// batch as a whole reaches the shadow layer at the next parallel
// construct — or earlier when it fills — where the page lookup, strand
// and race plumbing are resolved once per coalesced range.
func (e *Engine) Read(t *Task, addr uint64, words int) {
	e.access(t, event.Read, addr, words)
}

// Write implements Executor.
func (e *Engine) Write(t *Task, addr uint64, words int) {
	e.access(t, event.Write, addr, words)
}

func (e *Engine) access(t *Task, k event.Kind, addr uint64, words int) {
	if e.batch == nil || words <= 0 {
		return
	}
	e.checkPoison()
	if len(e.batch.Ops) > 0 && e.batch.Strand != t.strand {
		// Unreachable today — the current strand only changes at
		// constructs, which seal — but every op of a batch is checked as
		// batch.Strand's, so enforce the single-strand invariant locally.
		e.flushBatch()
	}
	e.batch.Strand = t.strand
	if e.batch.Append(k, addr, words) >= e.batchOps {
		e.flushBatch()
	}
}

// seal closes the open batch at a parallel construct. The batch leaves
// stamped with the generation and relation version it executed under, so
// an asynchronous back-end can keep checking it — against the immutable
// snapshot named by that version — while the construct proceeds and the
// program keeps executing: constructs do not block on back-end drain.
func (e *Engine) seal() {
	if e.batch == nil {
		return
	}
	e.flushBatch()
}

// flushBatch hands the open batch to the detection back-end: inline on
// the engine goroutine when the pipeline is synchronous, queued to the
// back-end (overlapping continued execution) when it is not. The batch is
// stamped with the current construct generation and relation version
// either way.
func (e *Engine) flushBatch() {
	if len(e.batch.Ops) == 0 {
		return
	}
	b := e.batch
	b.Gen = e.gen
	if e.vr != nil {
		b.Version = e.vr.Recorded()
		e.submittedVersion = b.Version
	}
	e.evStats.Batches++
	if e.be != nil {
		e.batch = event.New()
		e.be.submit(workItem{b: b})
		return
	}
	e.checkBatchInline(b)
	b.Reset()
}

// processBatch runs detection over one sealed batch. Every op in the
// batch was performed by batch.Strand under the relation snapshot named
// by batch.Version — the back-end consumer applies pending construct
// mutations up to exactly that version first, so in-flight checks never
// observe a relation newer than the one the accesses executed under.
// Large coalesced ranges additionally fan out across the shadow worker
// pool. Runs on the back-end goroutine when the pipeline is asynchronous,
// inline otherwise.
func (e *Engine) processBatch(b *event.Batch) {
	if e.faults.Fire(faultinject.ConsumerPanic) {
		panic(faultinject.Panic{Point: faultinject.ConsumerPanic})
	}
	e.faults.Delay(faultinject.ConsumerStall)
	if e.vr != nil {
		e.vr.ApplyTo(b.Version)
	}
	// Every batch starts with a cold verdict memo, so memo-hit counters
	// cannot depend on which pipeline checked the batch.
	e.hist.ResetBatchCaches()
	if e.mem == MemFull {
		// A local context carries the batch's own generation; the
		// prototype's relation pointer and race sinks are immutable.
		ctx := e.sctx
		ctx.Gen = b.Gen
		for i := range b.Ops {
			op := &b.Ops[i]
			if op.Kind == event.Read {
				if e.pool != nil {
					e.hist.ReadRangePar(op.Addr, op.Words, b.Strand, &ctx, e.pool)
				} else {
					e.hist.ReadRange(op.Addr, op.Words, b.Strand, &ctx)
				}
			} else {
				if e.pool != nil {
					e.hist.WriteRangePar(op.Addr, op.Words, b.Strand, &ctx, e.pool)
				} else {
					e.hist.WriteRange(op.Addr, op.Words, b.Strand, &ctx)
				}
			}
		}
		return
	}
	// MemInstr: decode-only traffic.
	for i := range b.Ops {
		e.hist.TouchRangePar(b.Ops[i].Addr, b.Ops[i].Words, e.pool)
	}
}

// pairSig condenses a race's identity beyond its address — the strand
// pair and access kinds — for the per-address dedupe bookkeeping.
func pairSig(prev, cur core.StrandID, prevWrite, curWrite bool) uint64 {
	// Strand ids are capped at 2^31-1 (the shadow layer's spill flag), so
	// the top bit of each half carries the access kind.
	sig := uint64(prev)<<32 | uint64(cur)
	if prevWrite {
		sig |= 1 << 63
	}
	if curWrite {
		sig |= 1 << 31
	}
	return sig
}

func (e *Engine) reportRace(addr uint64, prev, cur core.StrandID, prevWrite, curWrite bool) {
	e.raceMu.Lock()
	defer e.raceMu.Unlock()
	e.raceCount++
	sig := pairSig(prev, cur, prevWrite, curWrite)
	if seen, ok := e.raceSeen[addr]; ok {
		if seen != sig {
			e.dropPairs++
		}
		return
	}
	e.raceSeen[addr] = sig
	if len(e.races) >= e.maxRaces {
		e.truncRaces++
		return
	}
	r := Race{
		Addr: addr, Prev: prev, Curr: cur,
		PrevWrite: prevWrite, CurrWrite: curWrite,
		PrevLabel: e.labels[e.st.FnOf(prev)], CurrLabel: e.labels[e.st.FnOf(cur)],
	}
	e.races = append(e.races, r)
	if e.cfg.OnRace != nil {
		e.cfg.OnRace(r)
	}
}

// verifyReach forwards every event to both the algorithm under test and
// the dag oracle, compares every Precedes verdict, and records
// disagreements as violations. The oracle's answer is returned so
// detection results are ground truth.
type verifyReach struct {
	algo   core.Reach
	oracle *graph.Recorder
	eng    *Engine
}

func (v *verifyReach) Name() string { return v.algo.Name() + "+verify" }

func (v *verifyReach) Init(f core.FnID, s core.StrandID) {
	v.algo.Init(f, s)
	v.oracle.Init(f, s)
}
func (v *verifyReach) Spawn(r core.SpawnRec)      { v.algo.Spawn(r); v.oracle.Spawn(r) }
func (v *verifyReach) CreateFut(r core.CreateRec) { v.algo.CreateFut(r); v.oracle.CreateFut(r) }
func (v *verifyReach) Return(r core.ReturnRec)    { v.algo.Return(r); v.oracle.Return(r) }
func (v *verifyReach) SyncJoin(r core.JoinRec)    { v.algo.SyncJoin(r); v.oracle.SyncJoin(r) }
func (v *verifyReach) GetFut(r core.GetRec)       { v.algo.GetFut(r); v.oracle.GetFut(r) }

func (v *verifyReach) Precedes(u, w core.StrandID) bool {
	a := v.algo.Precedes(u, w)
	b := v.oracle.Precedes(u, w)
	if a != b {
		v.eng.violate("reach-mismatch", fmt.Sprintf(
			"%s says Precedes(%d,%d)=%v, oracle says %v", v.algo.Name(), u, w, a, b))
	}
	return b
}

func (v *verifyReach) Stats() core.ReachStats { return v.algo.Stats() }
