// Package event defines the access-event batches that connect execution
// front-ends (live programs, trace replay, generated workloads) to the
// detection back-end. A front-end appends the word and range accesses it
// observes to the current Batch; the batch is sealed — handed to detection
// as one unit — at the next parallel construct, where the reachability
// relation is about to mutate. Everything inside one batch therefore
// executed under a single, immutable reachability relation and a single
// strand, which is exactly the invariant that lets a sealed batch be
// checked concurrently with continued program execution (and lets the
// shadow layer fan one range out across workers).
//
// Appends coalesce: an access that extends the previous op of the same
// kind contiguously is merged into it, so a word-at-a-time scan reaches
// the shadow layer as one bulk range and pays one page lookup and one
// memoized reachability verdict instead of thousands. Coalescing is
// verdict-preserving — the merged range covers the same words in the same
// order with no intervening access, so the shadow protocol runs the exact
// same per-word steps.
//
// Batches are pooled: the detection back-end recycles them after
// processing, so a steady-state pipeline allocates nothing per batch.
package event

import (
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
)

// Kind is the access kind of one op.
type Kind uint8

// Access kinds.
const (
	Read Kind = iota
	Write
)

// Op is one coalesced access: Words consecutive shadow words starting at
// Addr, all read or all written.
type Op struct {
	Addr  uint64
	Words int
	Kind  Kind
}

// MaxOps is the default cap on the ops buffered in one batch. A front-end
// flushes a full batch mid-window (the detection back-end can start on it
// early); the cap bounds pipeline memory on construct-free access storms
// that do not coalesce. Coalescing scans, however long, stay a single op.
// The engine takes a per-run override (Config.BatchOps); this default was
// confirmed by bench_test.go's BenchmarkBatchCap sweep.
const MaxOps = 4096

// Batch is an ordered run of accesses made by one strand between two
// parallel constructs.
type Batch struct {
	// Strand is the strand that performed every op in the batch (the
	// current strand can only change at a construct, which seals).
	Strand core.StrandID
	// Gen is the engine's construct generation the ops executed under; it
	// keys the shadow layer's memoized verdicts and read-shared stamps.
	// Stamped at seal time, when the batch leaves the engine goroutine.
	Gen uint64
	// Version is the reachability-relation version (count of construct
	// mutations recorded) the ops executed under. The detection back-end
	// applies pending mutations up to exactly this version before
	// checking the batch.
	Version uint64
	// Seq is the batch's position in seal order, stamped at submit time;
	// pipeline failures name the batch they were checking by it.
	Seq uint64
	Ops []Op
}

// Append records an access, coalescing it into the previous op when it
// extends that op contiguously with the same kind. It returns the op
// count so callers can flush at MaxOps. Non-positive word counts are
// ignored.
func (b *Batch) Append(k Kind, addr uint64, words int) int {
	if words <= 0 {
		return len(b.Ops)
	}
	if n := len(b.Ops); n > 0 {
		last := &b.Ops[n-1]
		if last.Kind == k && last.Addr+uint64(last.Words) == addr {
			last.Words += words
			return n
		}
	}
	b.Ops = append(b.Ops, Op{Addr: addr, Words: words, Kind: k})
	return len(b.Ops)
}

// Len returns the number of (coalesced) ops buffered.
func (b *Batch) Len() int { return len(b.Ops) }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	b.Ops = b.Ops[:0]
	b.Strand = core.NoStrand
	b.Gen = 0
	b.Version = 0
	b.Seq = 0
}

// Stats counts batch-pipeline traffic.
type Stats struct {
	// Batches counts sealed non-empty batches handed to detection. It is
	// counted at seal time, so it is identical across every pipeline
	// configuration.
	Batches uint64
	// FootprintSpans, FootprintPages, StolenChunks and OverlappedWindows
	// are always zero. They exist only because perfbench/traced.go, the
	// repository benchmark, still reads them; remove them together with
	// those reads.
	FootprintSpans    uint64
	FootprintPages    uint64
	StolenChunks      uint64
	OverlappedWindows uint64
}

var pool = sync.Pool{New: func() any { return &Batch{} }}

// live counts batches taken from the pool and not yet recycled; tests use
// the delta across a run to prove the pipeline (including its failure
// paths) leaks no pooled batches.
var live atomic.Int64

// New returns an empty batch from the pool.
func New() *Batch {
	live.Add(1)
	b := pool.Get().(*Batch)
	b.Reset()
	return b
}

// Recycle returns a batch to the pool.
func Recycle(b *Batch) {
	if b == nil {
		return
	}
	live.Add(-1)
	pool.Put(b)
}

// Live returns the number of batches currently checked out of the pool.
// Compare before/after deltas rather than absolute values: other engines
// in the same process (parallel tests) also check batches out.
func Live() int64 { return live.Load() }
