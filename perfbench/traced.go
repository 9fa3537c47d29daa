package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"futurerd"
	"futurerd/internal/trace"
)

// The rungs of the paper's configuration ladder, each run on the same
// instance, plus a contrast rung at the other worker count.
const (
	rSeq   = iota // RunSeq: the program alone
	rOff          // MemOff: + reachability maintenance
	rInstr        // MemInstr: + access capture, batching, footprints, shadow decode
	rFull         // MemFull: + the access-history protocol
	rAlt          // MemFull at altWorkers
	numRungs
)

var rungNames = [numRungs]string{"RunSeq", "MemOff", "MemInstr", "MemFull", "MemFull-alt-workers"}

// altWorkers is the worker count of the contrast rung: serial for a
// program detected with two workers, two workers otherwise.
func altWorkers(p *program) int {
	if p.cfg.Workers > 1 {
		return 1
	}
	return 2
}

// timingDependent names the counters that may differ between two
// identical passes: both count scheduling outcomes of the async back-end.
// Every other counter taken from Report.Stats must repeat exactly.
var timingDependent = map[string]bool{
	"detect.overlapped_windows": true,
	"detect.stolen_chunks":      true,
}

// perLayer lists the traced run's metrics with their units, in the order
// BENCHMARK.json gives them.
var perLayer = []struct{ name, unit string }{
	{"workloads.run_s", "s"},
	{"core.reach_s", "s"},
	{"event.instr_s", "s"},
	{"shadow.protocol_s", "s"},
	{"trace.decode_s", "s"},
	{"trace.record_s", "s"},
	{"detect.serial_replay_s", "s"},
	{"detect.overlap_gain_x", "x"},
	{"detect.cpu_per_wall", "x"},
	{"core.queries", "count"},
	{"core.finds", "count"},
	{"core.unions", "count"},
	{"core.rclose_words", "count"},
	{"core.attached_sets", "count"},
	{"event.batches", "count"},
	{"event.footprint_spans", "count"},
	{"event.footprint_pages", "count"},
	{"shadow.words", "count"},
	{"shadow.fastpath_frac", "frac"},
	{"shadow.epoch_hits", "count"},
	{"shadow.memo_hits", "count"},
	{"shadow.reader_appends", "count"},
	{"shadow.spill_entries", "count"},
	{"shadow.touched_pages", "count"},
	{"detect.constructs", "count"},
	{"detect.race_obs", "count"},
	{"detect.overlapped_windows", "count"},
	{"detect.stolen_chunks", "count"},
	{"trace.bytes", "bytes"},
	{"trace.events", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"tracing_overhead_frac", "frac"},
}

// counters adds the per-layer counters of one full pass to c. The fast
// path fraction is derived from the sums once all programs are in.
func counters(c map[string]float64, st futurerd.Stats) {
	for k, v := range map[string]uint64{
		"core.queries":              st.Reach.Queries,
		"core.finds":                st.Reach.Finds,
		"core.unions":               st.Reach.Unions,
		"core.rclose_words":         st.Reach.RCloseWords,
		"core.attached_sets":        st.Reach.AttachedSets,
		"event.batches":             st.Event.Batches,
		"event.footprint_spans":     st.Event.FootprintSpans,
		"event.footprint_pages":     st.Event.FootprintPages,
		"shadow.words":              st.Shadow.Reads + st.Shadow.Writes,
		"shadow.fastpath_skips":     st.Shadow.OwnedSkips + st.Shadow.ReadSharedSkips,
		"shadow.epoch_hits":         st.Shadow.EpochHits,
		"shadow.memo_hits":          st.Shadow.MemoHits,
		"shadow.reader_appends":     st.Shadow.ReaderAppends,
		"shadow.spill_entries":      st.Shadow.SpillEntries,
		"shadow.touched_pages":      st.Shadow.TouchedPages,
		"detect.constructs":         st.Spawns + st.Creates + st.Gets + st.Syncs,
		"detect.race_obs":           st.RaceCount,
		"detect.overlapped_windows": st.Event.OverlappedWindows,
		"detect.stolen_chunks":      st.Event.StolenChunks,
	} {
		c[k] += float64(v)
	}
}

// span is one traced call, or a ladder round enclosing the calls of all
// programs.
type span struct {
	Name    string  `json:"name"`
	Program string  `json:"program,omitempty"`
	Parent  int     `json:"parent"`  // index of the enclosing span, -1 at the top
	StartS  float64 `json:"start_s"` // since the traced run began
	EndS    float64 `json:"end_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	GCs     uint32  `json:"gc_cycles"`
}

func (s span) wall() float64 { return s.EndS - s.StartS }

// tracer keeps the run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) open(name string, parent int) int {
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, StartS: time.Since(tr.t0).Seconds()})
	return len(tr.spans) - 1
}

func (tr *tracer) close(i int) { tr.spans[i].EndS = time.Since(tr.t0).Seconds() }

// call runs fn in a span, from a collected heap, and records its wall
// and CPU time, the heap it allocated and the GC cycles it ran.
func (tr *tracer) call(name, prog string, parent int, fn func()) span {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	i := tr.open(name, parent)
	fn()
	tr.close(i)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	s := &tr.spans[i]
	s.Program, s.CPUS = prog, c1-c0
	s.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	s.GCs = m1.NumGC - m0.NumGC
	return *s
}

func (tr *tracer) write(file string) error {
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}

// runTraced is the traced run: it reports every per-layer metric. A
// third of the budget times untraced passes, the reference for the
// tracing overhead; the rest runs ladder rounds, each tracing every rung
// of every program. The full pass's counters of each round must equal
// the first round's, apart from the timing-dependent ones.
func runTraced(w workload, seed uint64, budget time.Duration, spansFile string, log io.Writer) (*result, error) {
	progs, _, err := setup(w, seed)
	if err != nil {
		return nil, err
	}
	ref := measurePasses(progs, budget/3, log)
	attempted, failed := ref.attempted, ref.failed

	tr := &tracer{t0: time.Now()}
	times := make([][numRungs][]float64, len(progs))
	var rounds []map[string]float64 // counters of each round that passed
	var cpuPerWall, allocMB, gcs []float64
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget-budget/3; n++ {
		round := tr.open(fmt.Sprintf("round-%d", n), -1)
		ctr := map[string]float64{}
		var parWall, parCPU, alloc, gc float64
		ok := true
		for i, p := range progs {
			name := p.ins.Name()
			times[i][rSeq] = append(times[i][rSeq], tr.call(rungNames[rSeq], name, round, p.baseline).wall())
			for r := rOff; r < numRungs; r++ {
				cfg := p.cfg
				switch r {
				case rOff:
					cfg.Mem = futurerd.MemOff
				case rInstr:
					cfg.Mem = futurerd.MemInstr
				case rAlt:
					cfg.Workers = altWorkers(p)
				}
				var rep *futurerd.Report
				s := tr.call(rungNames[r], name, round, func() { rep, err = p.detect(cfg) })
				times[i][r] = append(times[i][r], s.wall())
				if cfg.Workers > 1 {
					parWall += s.wall()
					parCPU += s.CPUS
				}
				if err := p.check(rep, err, cfg.Mem); err != nil {
					fmt.Fprintf(log, "round %d %s failed: %v\n", n, rungNames[r], err)
					ok = false
				} else if r == rFull {
					counters(ctr, rep.Stats)
					alloc += s.AllocMB
					gc += float64(s.GCs)
				}
			}
		}
		tr.close(round)
		if ok && len(rounds) > 0 {
			for k, v := range ctr {
				if !timingDependent[k] && v != rounds[0][k] {
					fmt.Fprintf(log, "round %d: counter %s = %v, first round %v\n", n, k, v, rounds[0][k])
					ok = false
				}
			}
		}
		attempted++
		if !ok {
			failed++
			continue
		}
		rounds = append(rounds, ctr)
		cpuPerWall = append(cpuPerWall, parCPU/parWall)
		allocMB = append(allocMB, alloc)
		gcs = append(gcs, gc)
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no ladder round passed its verdicts")
	}

	c := map[string]float64{}
	for _, p := range progs {
		b, recS := p.trace, p.recordS
		if b == nil {
			s := tr.call("trace.Record", p.ins.Name(), -1, func() { b, err = futurerd.RecordTraceBytes(p.ins.Run) })
			if err != nil {
				return nil, fmt.Errorf("%s: record: %w", p.ins.Name(), err)
			}
			recS = s.wall()
		}
		var decS []float64
		var st *trace.StatInfo
		for k := 0; k < minPasses; k++ {
			s := tr.call("trace.Stat", p.ins.Name(), -1, func() { st, err = trace.Stat(bytes.NewReader(b)) })
			if err != nil {
				return nil, fmt.Errorf("%s: decode: %w", p.ins.Name(), err)
			}
			decS = append(decS, s.wall())
		}
		c["trace.record_s"] += recS
		c["trace.decode_s"] += median(decS)
		c["trace.bytes"] += float64(st.Bytes)
		c["trace.events"] += float64(st.Events)
	}
	if spansFile != "" {
		if err := tr.write(spansFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	var sum [numRungs]float64
	for i := range progs {
		for r := range sum {
			sum[r] += median(times[i][r])
		}
	}
	serial, parallel := sum[rFull], sum[rAlt]
	if w.replay {
		serial, parallel = parallel, serial
	}
	for k := range rounds[0] {
		vs := make([]float64, len(rounds))
		for j, rc := range rounds {
			vs[j] = rc[k]
		}
		c[k] = median(vs)
	}
	c["shadow.fastpath_frac"] = c["shadow.fastpath_skips"] / c["shadow.words"]
	c["workloads.run_s"] = sum[rSeq]
	c["core.reach_s"] = sum[rOff] - sum[rSeq]
	c["event.instr_s"] = sum[rInstr] - sum[rOff]
	c["shadow.protocol_s"] = sum[rFull] - sum[rInstr]
	c["detect.serial_replay_s"] = serial
	c["detect.overlap_gain_x"] = serial / parallel
	c["detect.cpu_per_wall"] = median(cpuPerWall)
	c["runtime.alloc_mb"] = median(allocMB)
	c["runtime.gc_cycles"] = median(gcs)
	refS := median(ref.detectS)
	c["tracing_overhead_frac"] = (sum[rFull] - refS) / refS

	r := newResult(attempted, failed)
	for _, m := range perLayer {
		r.add(m.name, c[m.name], m.unit)
	}
	return r, nil
}
