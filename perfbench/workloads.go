package main

import (
	"fmt"
	"time"

	"futurerd"
	"futurerd/internal/workloads"
)

// program is one detection target of a workload: an instance built once
// per run and reused by every pass, so shadow addresses and counters
// repeat from pass to pass.
type program struct {
	ins workloads.Instance
	// cfg is the full-detection configuration the workload times.
	cfg futurerd.Config
	// racy marks an instance armed to inject its race: a full pass must
	// report at least one race, and its output is not validated.
	racy bool
	// trace, when set, is the recording of ins that passes replay instead
	// of running ins; recordS is the time the recording took.
	trace   []byte
	recordS float64
}

// workload is one of the benchmark's input sets.
type workload struct {
	name string
	// replay records every program during set-up and replays the
	// recording in each pass.
	replay bool
	build  func(seed uint64) []*program
}

// The workloads use workloads.All's bench-size inputs. Each constructor
// takes seed*8+k, where k is the offset workloads.All gives that kernel,
// so seed 0 reproduces workloads.All(SizeBench) exactly.
var benchWorkloads = []workload{
	// The paper's Figs. 6/7 core: event capture and the shadow fast paths
	// do the work, reachability costs about the baseline.
	{name: "wavefront", build: func(seed uint64) []*program {
		return []*program{
			structured(workloads.NewLCS(1024, 32, workloads.StructuredFutures, seed*8+1)),
			general(workloads.NewLCS(1024, 32, workloads.GeneralFutures, seed*8+1)),
			structured(workloads.NewSW(192, 16, workloads.StructuredFutures, seed*8+2)),
			general(workloads.NewSW(192, 16, workloads.GeneralFutures, seed*8+2)),
			structured(workloads.NewMM(128, 16, workloads.StructuredFutures, seed*8+3)),
			general(workloads.NewMM(128, 16, workloads.GeneralFutures, seed*8+3)),
		}
	}},
	// Reader lists and the spill table dominate; few constructs, so
	// event and core changes bypass it.
	{name: "readshared", build: func(seed uint64) []*program {
		return []*program{
			general(workloads.NewPageRank(16384, 1024, 8, 6, workloads.GeneralFutures, seed*8+7)),
		}
	}},
	// Fig. 8's contrast: fine blocks make MultiBags+'s R closure (k²
	// words) the main cost, against MultiBags on the same kernel.
	{name: "futures-dense", build: func(seed uint64) []*program {
		bst := workloads.NewBST(80000, 40000, workloads.GeneralFutures, seed*8+6)
		bst.FutDepth = 11
		return []*program{
			general(workloads.NewLCS(1024, 8, workloads.GeneralFutures, seed*8+1)),
			structured(workloads.NewLCS(1024, 8, workloads.StructuredFutures, seed*8+1)),
			general(bst),
		}
	}},
	// The only workload on the trace decoder, the async back-end and the
	// race-report path.
	{name: "replay-2w", replay: true, build: func(seed uint64) []*program {
		lcs := workloads.NewLCS(1024, 32, workloads.GeneralFutures, seed*8+1)
		sw := workloads.NewSW(192, 16, workloads.GeneralFutures, seed*8+2)
		mm := workloads.NewMM(128, 16, workloads.GeneralFutures, seed*8+3)
		pr := workloads.NewPageRank(16384, 1024, 8, 6, workloads.GeneralFutures, seed*8+7)
		lcs.InjectRace, sw.InjectRace, mm.InjectRace, pr.InjectRace = true, true, true, true
		var ps []*program
		for _, ins := range []workloads.Instance{lcs, sw, mm, pr} {
			p := general(ins)
			p.cfg.Workers = 2
			p.racy = true
			ps = append(ps, p)
		}
		return ps
	}},
}

// structured detects ins under MultiBags. MultiBags only runs on
// structured variants: it is silently unsound on general futures, so
// that case is outside this benchmark's verdicts.
func structured(ins workloads.Instance) *program {
	return &program{ins: ins, cfg: futurerd.Config{Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull}}
}

// general detects ins under MultiBags+.
func general(ins workloads.Instance) *program {
	return &program{ins: ins, cfg: futurerd.Config{Mode: futurerd.ModeMultiBagsPlus, Mem: futurerd.MemFull}}
}

func lookup(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// detect runs one detection pass of p under cfg.
func (p *program) detect(cfg futurerd.Config) (*futurerd.Report, error) {
	if p.trace != nil {
		return futurerd.ReplayTraceBytes(p.trace, cfg)
	}
	return futurerd.Detect(cfg, p.ins.Run), nil
}

// baseline runs p once with detection off: the paper's T₁.
func (p *program) baseline() { futurerd.RunSeq(p.ins.Run) }

// check is the verdict gate of one pass at memory level mem. Every pass
// must end without Report.Err (and a replay must decode cleanly). A
// race-free program must report no race and produce output that
// validates; a racy one must report its race whenever memory detection
// is on.
func (p *program) check(rep *futurerd.Report, err error, mem futurerd.MemLevel) error {
	name := p.ins.Name()
	switch {
	case err != nil:
		return fmt.Errorf("%s: replay: %w", name, err)
	case rep.Err != nil:
		return fmt.Errorf("%s: %w", name, rep.Err)
	case p.racy && mem == futurerd.MemFull && rep.Stats.RaceCount == 0:
		return fmt.Errorf("%s: injected race not reported", name)
	case !p.racy && rep.Stats.RaceCount != 0:
		return fmt.Errorf("%s: %d race observations on a race-free program", name, rep.Stats.RaceCount)
	}
	if p.trace == nil && !p.racy {
		if err := p.ins.Validate(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// setup builds the workload's programs, records them when the workload
// replays, and runs one untimed baseline and one untimed, checked
// detection pass per program. It returns the programs and the wall time
// all of that took.
func setup(w workload, seed uint64) ([]*program, time.Duration, error) {
	start := time.Now()
	progs := w.build(seed)
	for _, p := range progs {
		if w.replay {
			t0 := time.Now()
			b, err := futurerd.RecordTraceBytes(p.ins.Run)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: record: %w", p.ins.Name(), err)
			}
			p.trace, p.recordS = b, time.Since(t0).Seconds()
		}
		p.baseline()
		rep, err := p.detect(p.cfg)
		if err := p.check(rep, err, p.cfg.Mem); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return progs, time.Since(start), nil
}
