// Package progen generates random task-parallel programs for property
// testing the race detectors against the brute-force dag oracle.
//
// Programs are generated in depth-first eager execution order, which makes
// two guarantees easy to enforce by construction:
//
//   - every get_fut names a future whose create_fut executed earlier
//     (forward-pointing futures, §2), so the detection engine never
//     deadlocks;
//   - in the structured dialect, every future handle is touched at most
//     once, from a point sequentially after its creation: handles travel
//     only "down" program order — a frame may get futures it created
//     itself, futures exported by a future it already got, and futures
//     exported by children it already synced. This is exactly the paper's
//     structured discipline (and TestGeneratorStructured verifies it with
//     the engine's discipline checker).
//
// The general dialect lets any frame get any already-created future any
// number of times, producing multi-touch and escaping handles.
package progen

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"futurerd/internal/detect"
)

// Dialect selects the future discipline of generated programs.
type Dialect int

// Dialects.
const (
	// PureSP uses only spawn/sync: a series-parallel program.
	PureSP Dialect = iota
	// Structured uses single-touch, sequentially ordered futures.
	Structured
	// General uses unconstrained (multi-touch, escaping) futures.
	General
)

// String returns the dialect name.
func (d Dialect) String() string {
	switch d {
	case PureSP:
		return "sp"
	case Structured:
		return "structured"
	case General:
		return "general"
	default:
		return "?"
	}
}

// Op is a statement kind.
type Op uint8

// Statement kinds.
const (
	OpRead Op = iota
	OpWrite
	OpSpawn
	OpSync
	OpCreate
	OpGet
)

// Stmt is one statement of a generated program.
type Stmt struct {
	Op   Op
	Loc  int    // OpRead/OpWrite: location in [0, NumLocs)
	Len  int    // OpRead/OpWrite: words accessed (1 = single word)
	Fut  int    // OpCreate/OpGet: future index
	Body *Block // OpSpawn/OpCreate
}

// Block is a statement sequence (one function body).
type Block struct {
	Stmts []Stmt
}

// Program is a generated task-parallel program.
type Program struct {
	Root    *Block
	NumLocs int
	NumFuts int
	Dialect Dialect
	Seed    uint64
}

// Options tunes generation.
type Options struct {
	Dialect  Dialect
	MaxStmts int // overall statement budget (default 40)
	MaxDepth int // nesting depth (default 5)
	Locs     int // shared locations (default 8)

	// ReadHeavy skews the access mix toward bulk reads over few
	// locations: many strands repeatedly re-reading overlapping shared
	// ranges, with writes rare enough that reader lists survive across
	// construct windows. This is the traffic shape of the shadow layer's
	// read-shared epoch fast path, so differential arms with ReadHeavy
	// pin that path (serial, worker-pool, and replay alike) against the
	// reference protocol and the oracle.
	ReadHeavy bool

	// ConstructDense doubles the spawn and sync weight of the statement
	// mix (while keeping a read-leaning access profile), so construct
	// generations bump every few statements and most re-reads land in a
	// later generation than the stamp they hope to ride. This is the
	// traffic shape of the carried-forward read epoch: differential arms
	// combining ConstructDense with ReadHeavy pin the cross-generation
	// stamp transfer against the reference protocol and the oracle.
	ConstructDense bool

	// PageSpread gives every spawned/created function body its own
	// page-aligned address region for most of its accesses (a quarter
	// still hit the shared low locations). Default programs keep all
	// traffic on shadow page zero; PageSpread programs spread it over
	// many pages, so the differential arms also cover multi-page traffic:
	// page materialization, the page cache and cross-page ranges.
	PageSpread bool
}

func (o *Options) defaults() {
	if o.MaxStmts == 0 {
		o.MaxStmts = 40
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 5
	}
	if o.Locs == 0 {
		o.Locs = 8
	}
}

type generator struct {
	rng     *rand.Rand
	opts    Options
	budget  int
	numFuts int
	exports map[int][]int // future id → futures exported with its value
	allFuts []int         // every future created so far (general dialect)

	// PageSpread bookkeeping: every generated block gets its own
	// page-aligned base for its private accesses.
	nextBlock int
	curBase   int
}

// pageWords mirrors the shadow layer's page size (2^12 words); progen
// avoids the import to stay a pure generator.
const pageWords = 4096

// Generate builds a random program from seed.
func Generate(seed uint64, opts Options) *Program {
	opts.defaults()
	g := &generator{
		rng:     rand.New(rand.NewPCG(seed, 0xfeedface)),
		opts:    opts,
		budget:  opts.MaxStmts,
		exports: make(map[int][]int),
	}
	root := g.genBlock(0, true)
	return &Program{
		Root:    root,
		NumLocs: opts.Locs,
		NumFuts: g.numFuts,
		Dialect: opts.Dialect,
		Seed:    seed,
	}
}

// frame tracks which futures a block may legally get (structured dialect).
type frame struct {
	eligible    []int // gettable now
	pendingSync []int // gettable after the next sync
}

// genBlock generates one function body and returns the block plus the
// futures it exports to its consumer. isRoot suppresses exporting.
func (g *generator) genBlock(depth int, isRoot bool) *Block {
	b, _ := g.genBlockExp(depth, isRoot)
	return b
}

func (g *generator) genBlockExp(depth int, isRoot bool) (*Block, []int) {
	b := &Block{}
	fr := &frame{}
	if g.opts.PageSpread {
		// Each body owns a page-aligned region; restore the caller's on
		// the way out (generation order is execution order).
		parentBase := g.curBase
		g.nextBlock++
		g.curBase = g.nextBlock * pageWords
		defer func() { g.curBase = parentBase }()
	}
	// Block length: geometric-ish, bounded by the global budget.
	maxLen := 3 + g.rng.IntN(8)
	if isRoot {
		maxLen = g.budget // the root may use the whole budget
	}
	for len(b.Stmts) < maxLen && g.budget > 0 {
		g.budget--
		b.Stmts = append(b.Stmts, g.genStmt(depth, fr))
	}
	// Exports: futures this block may hand to its consumer.
	var exports []int
	if !isRoot {
		pool := append(append([]int{}, fr.eligible...), fr.pendingSync...)
		for _, id := range pool {
			if g.rng.IntN(10) < 7 {
				exports = append(exports, id)
			}
		}
	}
	return b, exports
}

func (g *generator) genStmt(depth int, fr *frame) Stmt {
	// accessLen picks the width of a read/write: mostly single words, with
	// a tail of bulk ranges so the engine's range paths (and, in the
	// parallel differential tests, the worker fan-out) see real traffic.
	// Ranges deliberately overlap the single-word locations. Read-heavy
	// programs flip the bias: mostly bulk ranges, so the same few
	// locations are re-read over and over.
	accessLen := func() int {
		bulk := g.rng.IntN(4) == 0
		if g.opts.ReadHeavy {
			bulk = g.rng.IntN(4) != 0
		}
		if !bulk {
			return 1
		}
		return 2 + g.rng.IntN(3*g.opts.Locs)
	}
	// Statement mix: weights out of 20 per kind. The default mix is the
	// original 7 reads : 5 writes : 3 spawns : 2 creates : 2 gets : 1
	// sync; read-heavy programs trade most writes and one spawn slot for
	// extra reads (12:2:2:1:2:1), so reader lists pile up and survive
	// across construct windows. Construct-dense programs instead trade
	// reads for spawns and syncs (10:2:4:1:1:2), so generations bump every
	// few statements and stamped verdicts must carry across them.
	readCut, writeCut, spawnCut, createCut, getCut := 7, 12, 15, 17, 19
	if g.opts.ReadHeavy {
		readCut, writeCut, spawnCut, createCut, getCut = 12, 14, 16, 17, 19
	}
	if g.opts.ConstructDense {
		readCut, writeCut, spawnCut, createCut, getCut = 10, 12, 16, 17, 18
	}
	// loc places an access: on the shared low locations, or — under
	// PageSpread, three times in four — inside the block's private page.
	loc := func() int {
		l := g.rng.IntN(g.opts.Locs)
		if g.opts.PageSpread && g.rng.IntN(4) != 0 {
			return g.curBase + l
		}
		return l
	}
	for {
		switch k := g.rng.IntN(20); {
		case k < readCut: // read
			return Stmt{Op: OpRead, Loc: loc(), Len: accessLen()}
		case k < writeCut: // write
			return Stmt{Op: OpWrite, Loc: loc(), Len: accessLen()}
		case k < spawnCut: // spawn
			if depth >= g.opts.MaxDepth || g.budget < 2 {
				continue
			}
			body, exp := g.genBlockExp(depth+1, false)
			fr.pendingSync = append(fr.pendingSync, exp...)
			return Stmt{Op: OpSpawn, Body: body}
		case k < createCut: // create_fut
			if g.opts.Dialect == PureSP || depth >= g.opts.MaxDepth || g.budget < 2 {
				continue
			}
			id := g.numFuts
			g.numFuts++
			body, exp := g.genBlockExp(depth+1, false)
			g.exports[id] = exp
			g.allFuts = append(g.allFuts, id)
			fr.eligible = append(fr.eligible, id)
			return Stmt{Op: OpCreate, Fut: id, Body: body}
		case k < getCut: // get_fut
			switch g.opts.Dialect {
			case PureSP:
				continue
			case Structured:
				if len(fr.eligible) == 0 {
					continue
				}
				i := g.rng.IntN(len(fr.eligible))
				id := fr.eligible[i]
				fr.eligible = append(fr.eligible[:i], fr.eligible[i+1:]...)
				// The consumer inherits the future's exports.
				fr.eligible = append(fr.eligible, g.exports[id]...)
				return Stmt{Op: OpGet, Fut: id}
			case General:
				if len(g.allFuts) == 0 {
					continue
				}
				return Stmt{Op: OpGet, Fut: g.allFuts[g.rng.IntN(len(g.allFuts))]}
			}
		default: // sync
			fr.eligible = append(fr.eligible, fr.pendingSync...)
			fr.pendingSync = nil
			return Stmt{Op: OpSync}
		}
	}
}

// Run interprets the program on t. Locations map to virtual addresses
// 1..NumLocs. Futures resolve through a shared environment, which is safe
// because the detection engine executes sequentially.
func (p *Program) Run(t *detect.Task) {
	env := make([]*detect.Fut, p.NumFuts)
	runBlock(p.Root, t, env)
}

func runBlock(b *Block, t *detect.Task, env []*detect.Fut) {
	for i := range b.Stmts {
		s := &b.Stmts[i]
		switch s.Op {
		case OpRead:
			if s.Len > 1 {
				t.ReadRange(uint64(s.Loc)+1, s.Len)
			} else {
				t.Read(uint64(s.Loc) + 1)
			}
		case OpWrite:
			if s.Len > 1 {
				t.WriteRange(uint64(s.Loc)+1, s.Len)
			} else {
				t.Write(uint64(s.Loc) + 1)
			}
		case OpSpawn:
			body := s.Body
			t.Spawn(func(c *detect.Task) { runBlock(body, c, env) })
		case OpSync:
			t.Sync()
		case OpCreate:
			body, id := s.Body, s.Fut
			env[id] = t.CreateFut(func(c *detect.Task) any {
				runBlock(body, c, env)
				return id
			})
		case OpGet:
			t.GetFut(env[s.Fut])
		}
	}
}

// Stats summarizes a program's composition.
func (p *Program) Stats() (accesses, spawns, creates, gets, syncs int) {
	var walk func(*Block)
	walk = func(b *Block) {
		for i := range b.Stmts {
			switch b.Stmts[i].Op {
			case OpRead, OpWrite:
				accesses++
			case OpSpawn:
				spawns++
				walk(b.Stmts[i].Body)
			case OpCreate:
				creates++
				walk(b.Stmts[i].Body)
			case OpGet:
				gets++
			case OpSync:
				syncs++
			}
		}
	}
	walk(p.Root)
	return
}

// String renders the program as indented pseudocode; printed by failing
// property tests so the offending program can be turned into a regression
// test.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// seed=%d dialect=%s locs=%d futs=%d\n",
		p.Seed, p.Dialect, p.NumLocs, p.NumFuts)
	var walk func(*Block, string)
	walk = func(blk *Block, ind string) {
		for i := range blk.Stmts {
			s := &blk.Stmts[i]
			switch s.Op {
			case OpRead:
				if s.Len > 1 {
					fmt.Fprintf(&b, "%sread  x%d..x%d\n", ind, s.Loc, s.Loc+s.Len-1)
				} else {
					fmt.Fprintf(&b, "%sread  x%d\n", ind, s.Loc)
				}
			case OpWrite:
				if s.Len > 1 {
					fmt.Fprintf(&b, "%swrite x%d..x%d\n", ind, s.Loc, s.Loc+s.Len-1)
				} else {
					fmt.Fprintf(&b, "%swrite x%d\n", ind, s.Loc)
				}
			case OpSpawn:
				fmt.Fprintf(&b, "%sspawn {\n", ind)
				walk(s.Body, ind+"  ")
				fmt.Fprintf(&b, "%s}\n", ind)
			case OpSync:
				fmt.Fprintf(&b, "%ssync\n", ind)
			case OpCreate:
				fmt.Fprintf(&b, "%sf%d = create_fut {\n", ind, s.Fut)
				walk(s.Body, ind+"  ")
				fmt.Fprintf(&b, "%s}\n", ind)
			case OpGet:
				fmt.Fprintf(&b, "%sget_fut f%d\n", ind, s.Fut)
			}
		}
	}
	walk(p.Root, "")
	return b.String()
}
