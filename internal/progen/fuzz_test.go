package progen

import (
	"testing"

	"futurerd/internal/detect"
	"futurerd/internal/trace"
)

// Native fuzz targets: any seed must produce a program on which the
// algorithms agree with the brute-force oracle on every query and every
// race. Run continuously with
//
//	go test -fuzz FuzzGeneralPrograms ./internal/progen
//
// Without -fuzz the seed corpus below runs as regular tests.

func fuzzOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	rep := detect.NewEngine(detect.Config{
		Mode:   mode,
		Mem:    detect.MemFull,
		Verify: true,
	}).Run(p.Run)
	if rep.Err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, rep.Err, p)
	}
	for _, v := range rep.Violations {
		t.Fatalf("seed %d: %s: %s\n%s", seed, v.Kind, v.Detail, p)
	}
}

// parallelOne asserts the verdict-set equivalence of the worker-pool
// range path against the serial engine on one generated program: same
// races (content and order — the parallel path delivers events in chunk
// order, which is address order), same observation count, same protocol
// counters. The tiny WorkerChunk forces even progen's short ranges to
// fan out across real workers.
func parallelOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	serial := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	par := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
		Workers: 3, WorkerChunk: 4,
	}).Run(p.Run)
	if serial.Err != nil || par.Err != nil {
		t.Fatalf("seed %d: serial err %v, parallel err %v\n%s", seed, serial.Err, par.Err, p)
	}
	if serial.Stats.RaceCount != par.Stats.RaceCount ||
		len(serial.Races) != len(par.Races) {
		t.Fatalf("seed %d: verdicts diverge: serial %d races (%d observations), parallel %d (%d)\n%s",
			seed, len(serial.Races), serial.Stats.RaceCount,
			len(par.Races), par.Stats.RaceCount, p)
	}
	for i := range serial.Races {
		if serial.Races[i] != par.Races[i] {
			t.Fatalf("seed %d: race %d differs: serial %v, parallel %v\n%s",
				seed, i, serial.Races[i], par.Races[i], p)
		}
	}
	ss, ps := serial.Stats.Shadow, par.Stats.Shadow
	if ss.Reads != ps.Reads || ss.Writes != ps.Writes ||
		ss.OwnedSkips != ps.OwnedSkips || ss.ReadSharedSkips != ps.ReadSharedSkips ||
		ss.ReaderAppends != ps.ReaderAppends ||
		ss.ReaderFlushes != ps.ReaderFlushes {
		t.Fatalf("seed %d: shadow counters diverge\nserial %+v\npar    %+v\n%s", seed, ss, ps, p)
	}
}

// workersOne asserts pipeline equivalence on one generated program: the
// Workers ∈ {1,4} engines (range fan-out plus the asynchronous back-end)
// must reproduce the serial engine's report exactly — same races in the
// same order, same protocol counters, same memo and fast-path hits, same
// reachability traffic, same batch count. A final config forces the
// intra-range fan-out with a tiny WorkerChunk and compares the verdict
// counters (per-chunk memos legitimately change memo/query plumbing,
// exactly as in parallelOne).
func workersOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	serial := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	if serial.Err != nil {
		t.Fatalf("seed %d: serial err %v\n%s", seed, serial.Err, p)
	}
	check := func(cfg detect.Config, full bool) {
		rep := detect.NewEngine(cfg).Run(p.Run)
		if rep.Err != nil {
			t.Fatalf("seed %d [w=%d]: %v\n%s", seed, cfg.Workers, rep.Err, p)
		}
		if len(serial.Races) != len(rep.Races) {
			t.Fatalf("seed %d [w=%d]: %d races vs serial %d\n%s",
				seed, cfg.Workers, len(rep.Races), len(serial.Races), p)
		}
		for i := range serial.Races {
			if serial.Races[i] != rep.Races[i] {
				t.Fatalf("seed %d [w=%d]: race %d differs: %v vs %v\n%s",
					seed, cfg.Workers, i, serial.Races[i], rep.Races[i], p)
			}
		}
		ss, cs := serial.Stats, rep.Stats
		if !full {
			sh, ch := ss.Shadow, cs.Shadow
			if ss.RaceCount != cs.RaceCount || sh.Reads != ch.Reads || sh.Writes != ch.Writes ||
				sh.OwnedSkips != ch.OwnedSkips || sh.ReadSharedSkips != ch.ReadSharedSkips ||
				sh.ReaderAppends != ch.ReaderAppends || sh.ReaderFlushes != ch.ReaderFlushes {
				t.Fatalf("seed %d [w=%d chunked]: verdict counters diverge\nserial %+v\ngot    %+v\n%s",
					seed, cfg.Workers, sh, ch, p)
			}
			return
		}
		ss.Shadow.ParRanges, ss.Shadow.ParChunks, ss.Shadow.PageCacheHits = 0, 0, 0
		cs.Shadow.ParRanges, cs.Shadow.ParChunks, cs.Shadow.PageCacheHits = 0, 0, 0
		if ss.RaceCount != cs.RaceCount || ss.Shadow != cs.Shadow ||
			ss.Reach != cs.Reach || ss.Event != cs.Event {
			t.Fatalf("seed %d [w=%d]: stats diverge\nserial %+v\ngot    %+v\n%s",
				seed, cfg.Workers, ss, cs, p)
		}
	}
	for _, workers := range []int{1, 4} {
		check(detect.Config{
			Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20, Workers: workers,
		}, true)
	}
	check(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
		Workers: 3, WorkerChunk: 4,
	}, false)
}

// epochOne is the cross-generation read-epoch differential on one
// generated program. The reference run sets Verify: the engine wraps the
// algorithm for oracle cross-checking, the wrapper does not export the
// EpochConcurrent capability, and so every cross-generation re-read pays
// the full reference protocol while the oracle audits each verdict. The
// epoch-enabled runs (Workers ∈ {1,4}) must then
// reproduce that reference report exactly — same races in the same
// order, same verdict counters — with the stamp transfer switched on.
func epochOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) uint64 {
	t.Helper()
	p := Generate(seed, opts)
	ref := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, Verify: true, MaxRaces: 1 << 20,
	}).Run(p.Run)
	if ref.Err != nil {
		t.Fatalf("seed %d: reference err %v\n%s", seed, ref.Err, p)
	}
	for _, v := range ref.Violations {
		t.Fatalf("seed %d: %s: %s\n%s", seed, v.Kind, v.Detail, p)
	}
	if ref.Stats.Shadow.EpochHits != 0 {
		t.Fatalf("seed %d: verified reference run took %d epoch transfers, want 0\n%s",
			seed, ref.Stats.Shadow.EpochHits, p)
	}
	var hits uint64
	for _, workers := range []int{1, 4} {
		rep := detect.NewEngine(detect.Config{
			Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20, Workers: workers,
		}).Run(p.Run)
		if rep.Err != nil {
			t.Fatalf("seed %d [w=%d]: %v\n%s", seed, workers, rep.Err, p)
		}
		if len(ref.Races) != len(rep.Races) {
			t.Fatalf("seed %d [w=%d]: epoch run found %d races, reference %d\n%s",
				seed, workers, len(rep.Races), len(ref.Races), p)
		}
		for i := range ref.Races {
			if ref.Races[i] != rep.Races[i] {
				t.Fatalf("seed %d [w=%d]: race %d differs: epoch %v, reference %v\n%s",
					seed, workers, i, rep.Races[i], ref.Races[i], p)
			}
		}
		rs, es := ref.Stats.Shadow, rep.Stats.Shadow
		if ref.Stats.RaceCount != rep.Stats.RaceCount ||
			rs.Reads != es.Reads || rs.Writes != es.Writes ||
			rs.OwnedSkips != es.OwnedSkips || rs.ReadSharedSkips != es.ReadSharedSkips ||
			rs.ReaderAppends != es.ReaderAppends || rs.ReaderFlushes != es.ReaderFlushes {
			t.Fatalf("seed %d [w=%d]: verdict counters diverge\nreference %+v\nepoch     %+v\n%s",
				seed, workers, rs, es, p)
		}
		hits += es.EpochHits
	}
	return hits
}

// vcOne is the vector-clock differential on one generated program: the
// vc back-end must be verdict- and race-order-identical to MultiBags+ —
// same races in the same order, same shadow protocol counters (including
// epoch transfers: both EpochOrdered implementations are exact, so they
// must skip the same re-reads), same query count — while resolving every
// query as a clock comparison: ClockCompares > 0 and every bag-probe
// counter exactly zero.
func vcOne(t *testing.T, seed uint64, opts Options) {
	t.Helper()
	p := Generate(seed, opts)
	mbp := detect.NewEngine(detect.Config{
		Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	vc := detect.NewEngine(detect.Config{
		Mode: detect.ModeVectorClocks, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	if mbp.Err != nil || vc.Err != nil {
		t.Fatalf("seed %d: multibags+ err %v, vc err %v\n%s", seed, mbp.Err, vc.Err, p)
	}
	if len(mbp.Races) != len(vc.Races) || mbp.Stats.RaceCount != vc.Stats.RaceCount {
		t.Fatalf("seed %d: vc found %d races (%d observations), multibags+ %d (%d)\n%s",
			seed, len(vc.Races), vc.Stats.RaceCount,
			len(mbp.Races), mbp.Stats.RaceCount, p)
	}
	for i := range mbp.Races {
		if mbp.Races[i] != vc.Races[i] {
			t.Fatalf("seed %d: race %d differs: vc %v, multibags+ %v\n%s",
				seed, i, vc.Races[i], mbp.Races[i], p)
		}
	}
	if mbp.Stats.Shadow != vc.Stats.Shadow {
		t.Fatalf("seed %d: shadow counters diverge\nmultibags+ %+v\nvc         %+v\n%s",
			seed, mbp.Stats.Shadow, vc.Stats.Shadow, p)
	}
	mr, vr := mbp.Stats.Reach, vc.Stats.Reach
	if mr.Queries != vr.Queries {
		t.Fatalf("seed %d: vc made %d queries, multibags+ %d\n%s",
			seed, vr.Queries, mr.Queries, p)
	}
	if vr.Finds != 0 || vr.Unions != 0 || vr.AttachedSets != 0 ||
		vr.RArcs != 0 || vr.RCloseWords != 0 {
		t.Fatalf("seed %d: vc run took bag probes: %+v\n%s", seed, vr, p)
	}
	if vr.Queries > 0 && vr.ClockCompares == 0 {
		t.Fatalf("seed %d: vc answered %d queries with 0 clock compares\n%s",
			seed, vr.Queries, p)
	}
}

// replayOne asserts the record→replay→detect equivalence on one
// generated program: recording its trace and replaying it must reproduce
// the direct run's report — same races in the same order, same structure
// and shadow traffic — under every algorithm, serial and parallel.
func replayOne(t *testing.T, seed uint64, opts Options) {
	t.Helper()
	p := Generate(seed, opts)
	raw, err := trace.RecordBytes(p.Run)
	if err != nil {
		t.Fatalf("seed %d: record: %v", seed, err)
	}
	for _, mode := range []detect.Mode{
		detect.ModeSPBags, detect.ModeMultiBags, detect.ModeMultiBagsPlus,
		detect.ModeVectorClocks,
	} {
		for _, workers := range []int{1, 4} {
			cfg := detect.Config{
				Mode: mode, Mem: detect.MemFull,
				Workers: workers, WorkerChunk: 4, MaxRaces: 1 << 20,
			}
			direct := detect.NewEngine(cfg).Run(p.Run)
			replayed, err := trace.ReplayBytes(raw, cfg)
			if err != nil {
				t.Fatalf("seed %d [%s w=%d]: replay: %v\n%s", seed, mode, workers, err, p)
			}
			if (direct.Err == nil) != (replayed.Err == nil) {
				t.Fatalf("seed %d [%s w=%d]: errs diverge: %v vs %v\n%s",
					seed, mode, workers, direct.Err, replayed.Err, p)
			}
			if direct.Stats.RaceCount != replayed.Stats.RaceCount ||
				len(direct.Races) != len(replayed.Races) {
				t.Fatalf("seed %d [%s w=%d]: direct %d/%d vs replay %d/%d races\n%s",
					seed, mode, workers,
					len(direct.Races), direct.Stats.RaceCount,
					len(replayed.Races), replayed.Stats.RaceCount, p)
			}
			for i := range direct.Races {
				if direct.Races[i] != replayed.Races[i] {
					t.Fatalf("seed %d [%s w=%d]: race %d differs: %v vs %v\n%s",
						seed, mode, workers, i, direct.Races[i], replayed.Races[i], p)
				}
			}
			if direct.Stats.Strands != replayed.Stats.Strands ||
				direct.Stats.Spawns != replayed.Stats.Spawns ||
				direct.Stats.Creates != replayed.Stats.Creates ||
				direct.Stats.Gets != replayed.Stats.Gets ||
				direct.Stats.Syncs != replayed.Stats.Syncs {
				t.Fatalf("seed %d [%s w=%d]: structure diverges:\ndirect %+v\nreplay %+v\n%s",
					seed, mode, workers, direct.Stats, replayed.Stats, p)
			}
			ss, rs := direct.Stats.Shadow, replayed.Stats.Shadow
			if ss.Reads != rs.Reads || ss.Writes != rs.Writes ||
				ss.OwnedSkips != rs.OwnedSkips || ss.ReadSharedSkips != rs.ReadSharedSkips ||
				ss.ReaderAppends != rs.ReaderAppends ||
				ss.ReaderFlushes != rs.ReaderFlushes {
				t.Fatalf("seed %d [%s w=%d]: shadow counters diverge\ndirect %+v\nreplay %+v\n%s",
					seed, mode, workers, ss, rs, p)
			}
		}
	}
}

func FuzzGeneralPrograms(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 1 << 20, 0xdeadbeef} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		opts := Options{Dialect: General, MaxStmts: 60}
		fuzzOne(t, seed, opts, detect.ModeMultiBagsPlus)
		fuzzOne(t, seed, opts, detect.ModeVectorClocks)
		vcOne(t, seed, opts)
		parallelOne(t, seed, opts, detect.ModeMultiBagsPlus)
		workersOne(t, seed, opts, detect.ModeMultiBagsPlus)
		workersOne(t, seed, opts, detect.ModeVectorClocks)
		spread := opts
		spread.PageSpread = true
		fuzzOne(t, seed, spread, detect.ModeMultiBagsPlus)
		workersOne(t, seed, spread, detect.ModeMultiBagsPlus)
		replayOne(t, seed, opts)
	})
}

func FuzzStructuredPrograms(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 99999} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		opts := Options{Dialect: Structured, MaxStmts: 60}
		fuzzOne(t, seed, opts, detect.ModeMultiBags)
		fuzzOne(t, seed, opts, detect.ModeMultiBagsPlus)
		fuzzOne(t, seed, opts, detect.ModeVectorClocks)
		parallelOne(t, seed, opts, detect.ModeMultiBags)
		workersOne(t, seed, opts, detect.ModeMultiBags)
		spread := opts
		spread.PageSpread = true
		fuzzOne(t, seed, spread, detect.ModeMultiBags)
		workersOne(t, seed, spread, detect.ModeMultiBags)
		replayOne(t, seed, opts)
	})
}

// FuzzReadSharedPrograms is the read-shared-heavy differential arm: the
// access mix is mostly bulk reads over a handful of locations, so
// reader lists stack up, strands re-read ranges other strands have read,
// and the read-shared epoch stamps carry real weight. Any seed must agree
// with the oracle on every verdict and with the serial engine on every
// counter the protocol defines — if the stamp ever masked a race or
// mis-skipped, this arm is built to find it.
func FuzzReadSharedPrograms(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 4096, 0xfeedbeef} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		gen := Options{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true}
		str := Options{Dialect: Structured, MaxStmts: 60, Locs: 5, ReadHeavy: true}
		fuzzOne(t, seed, gen, detect.ModeMultiBagsPlus)
		fuzzOne(t, seed, gen, detect.ModeVectorClocks)
		fuzzOne(t, seed, str, detect.ModeMultiBags)
		vcOne(t, seed, gen)
		parallelOne(t, seed, gen, detect.ModeMultiBagsPlus)
		replayOne(t, seed, gen)
		// Cross-generation arm: construct-dense read-heavy programs bump
		// the generation every few statements, so stamped read verdicts
		// must carry across construct windows (or fall back) without ever
		// changing a verdict vs the oracle-audited reference protocol.
		dense := gen
		dense.ConstructDense = true
		denseStr := str
		denseStr.ConstructDense = true
		fuzzOne(t, seed, dense, detect.ModeMultiBagsPlus)
		fuzzOne(t, seed, dense, detect.ModeVectorClocks)
		fuzzOne(t, seed, denseStr, detect.ModeMultiBags)
		vcOne(t, seed, dense)
		epochOne(t, seed, dense, detect.ModeMultiBagsPlus)
		epochOne(t, seed, dense, detect.ModeVectorClocks)
		epochOne(t, seed, denseStr, detect.ModeMultiBags)
		replayOne(t, seed, dense)
	})
}

// TestParallelMatchesSerialSeeds sweeps the parallel differential over a
// seed range so plain `go test` (and `go test -race`) covers many
// programs without the fuzzer.
func TestParallelMatchesSerialSeeds(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		parallelOne(t, seed, Options{Dialect: General, MaxStmts: 60}, detect.ModeMultiBagsPlus)
		parallelOne(t, seed, Options{Dialect: Structured, MaxStmts: 60}, detect.ModeMultiBags)
	}
}

// TestWorkersMatchSerialSeeds sweeps the full-Stats Workers differential
// (workersOne) over a seed range, in both the default shape — every
// access on shadow page zero — and the PageSpread shape, where per-body
// pages spread the traffic over many pages.
func TestWorkersMatchSerialSeeds(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		workersOne(t, seed, Options{Dialect: General, MaxStmts: 60}, detect.ModeMultiBagsPlus)
		workersOne(t, seed, Options{Dialect: Structured, MaxStmts: 60}, detect.ModeMultiBags)
		workersOne(t, seed, Options{Dialect: General, MaxStmts: 60, PageSpread: true}, detect.ModeMultiBagsPlus)
		workersOne(t, seed, Options{Dialect: Structured, MaxStmts: 60, PageSpread: true}, detect.ModeMultiBags)
	}
}

// TestReplayMatchesDirectSeeds sweeps the record→replay→detect
// differential (all three algorithms, Workers ∈ {1, 4}) the same way.
func TestReplayMatchesDirectSeeds(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		replayOne(t, seed, Options{Dialect: General, MaxStmts: 60})
		replayOne(t, seed, Options{Dialect: Structured, MaxStmts: 60})
	}
}

// TestReadSharedHeavySeeds sweeps the read-shared-heavy arm without the
// fuzzer, and checks the mix actually exercises the fast path.
func TestReadSharedHeavySeeds(t *testing.T) {
	opts := Options{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true}
	var skips uint64
	for seed := uint64(0); seed < 30; seed++ {
		fuzzOne(t, seed, opts, detect.ModeMultiBagsPlus)
		parallelOne(t, seed, opts, detect.ModeMultiBagsPlus)
		p := Generate(seed, opts)
		rep := detect.NewEngine(detect.Config{
			Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
		}).Run(p.Run)
		skips += rep.Stats.Shadow.ReadSharedSkips
	}
	if skips == 0 {
		t.Fatal("read-heavy sweep never hit the read-shared fast path")
	}
}

// TestEpochCrossGenSeeds sweeps the cross-generation epoch differential
// without the fuzzer — construct-dense read-heavy programs under
// Workers ∈ {1,4} against the oracle-audited,
// epoch-free reference — and checks the sweep actually takes stamp
// transfers somewhere, so the differential proves something about the
// carried-forward epoch rather than vacuously passing with it cold.
func TestEpochCrossGenSeeds(t *testing.T) {
	gen := Options{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true, ConstructDense: true}
	str := Options{Dialect: Structured, MaxStmts: 60, Locs: 5, ReadHeavy: true, ConstructDense: true}
	var hits uint64
	for seed := uint64(0); seed < 25; seed++ {
		hits += epochOne(t, seed, gen, detect.ModeMultiBagsPlus)
		hits += epochOne(t, seed, gen, detect.ModeVectorClocks)
		hits += epochOne(t, seed, str, detect.ModeMultiBags)
	}
	if hits == 0 {
		t.Fatal("construct-dense sweep never transferred a stamped verdict across generations")
	}
}

// TestVectorClockEquivalence is the vector-clock back-end's acceptance
// sweep: across Workers ∈ {1,4} and all three progen
// shapes (general, structured, construct-dense read-heavy), vc must
// deep-equal MultiBags+ on races (content and order), violations and the
// verdict counters — while taking clock compares and exactly zero bag
// probes. The serial vcOne differential runs first so a divergence
// blames the algorithm before the pipeline.
func TestVectorClockEquivalence(t *testing.T) {
	shapes := []Options{
		{Dialect: General, MaxStmts: 60},
		{Dialect: Structured, MaxStmts: 60},
		{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true, ConstructDense: true},
	}
	var compares uint64
	for seed := uint64(0); seed < 21; seed++ {
		for _, opts := range shapes {
			vcOne(t, seed, opts)
			p := Generate(seed, opts)
			for _, workers := range []int{1, 4} {
				mbp := detect.NewEngine(detect.Config{
					Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
					Workers: workers,
				}).Run(p.Run)
				vc := detect.NewEngine(detect.Config{
					Mode: detect.ModeVectorClocks, Mem: detect.MemFull, MaxRaces: 1 << 20,
					Workers: workers,
				}).Run(p.Run)
				if mbp.Err != nil || vc.Err != nil {
					t.Fatalf("seed %d [w=%d]: multibags+ err %v, vc err %v\n%s",
						seed, workers, mbp.Err, vc.Err, p)
				}
				if len(mbp.Races) != len(vc.Races) {
					t.Fatalf("seed %d [w=%d]: vc %d races, multibags+ %d\n%s",
						seed, workers, len(vc.Races), len(mbp.Races), p)
				}
				for i := range mbp.Races {
					if mbp.Races[i] != vc.Races[i] {
						t.Fatalf("seed %d [w=%d]: race %d differs: vc %v, multibags+ %v\n%s",
							seed, workers, i, vc.Races[i], mbp.Races[i], p)
					}
				}
				if len(mbp.Violations) != len(vc.Violations) {
					t.Fatalf("seed %d [w=%d]: vc %d violations, multibags+ %d\n%s",
						seed, workers, len(vc.Violations), len(mbp.Violations), p)
				}
				for i := range mbp.Violations {
					if mbp.Violations[i] != vc.Violations[i] {
						t.Fatalf("seed %d [w=%d]: violation %d differs: vc %v, multibags+ %v\n%s",
							seed, workers, i, vc.Violations[i], mbp.Violations[i], p)
					}
				}
				ms, vs := mbp.Stats.Shadow, vc.Stats.Shadow
				if mbp.Stats.RaceCount != vc.Stats.RaceCount ||
					ms.Reads != vs.Reads || ms.Writes != vs.Writes ||
					ms.OwnedSkips != vs.OwnedSkips || ms.ReadSharedSkips != vs.ReadSharedSkips ||
					ms.ReaderAppends != vs.ReaderAppends || ms.ReaderFlushes != vs.ReaderFlushes ||
					ms.EpochHits != vs.EpochHits {
					t.Fatalf("seed %d [w=%d]: verdict counters diverge\nmultibags+ %+v\nvc         %+v\n%s",
						seed, workers, ms, vs, p)
				}
				vr := vc.Stats.Reach
				if vr.Finds != 0 || vr.Unions != 0 || vr.AttachedSets != 0 ||
					vr.RArcs != 0 || vr.RCloseWords != 0 {
					t.Fatalf("seed %d [w=%d]: vc run took bag probes: %+v\n%s",
						seed, workers, vr, p)
				}
				compares += vr.ClockCompares
			}
		}
	}
	if compares == 0 {
		t.Fatal("vector-clock sweep never made a clock comparison")
	}
}
