package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// setupRuns is how many times a run sets the workload up; setup_s is
	// the median and the last set-up is the one measured.
	setupRuns = 3
	// minPasses bounds the passes of a run from below, whatever its time.
	minPasses = 3
	// baselineTarget is how long a pass keeps repeating one program's
	// RunSeq (at least once), so pagerank's ~10 ms baseline is sampled
	// several times per pass.
	baselineTarget = 30 * time.Millisecond
)

// passes holds the samples of a run's timed passes.
type passes struct {
	attempted, failed int
	detectS, cpuS     []float64   // per pass, summed over programs
	progDetectS       [][]float64 // per program, one sample per pass
	// progBaseS holds per program, per pass, the median of the pass's
	// RunSeq calls.
	progBaseS [][]float64
}

// measurePasses times full-detection passes over progs until budget is
// spent. A pass runs, for each program in turn, its baseline repeated for
// baselineTarget and then one checked detection pass. The heap is
// collected before each timed call, so every call starts from the same
// heap a fresh process would.
func measurePasses(progs []*program, budget time.Duration, log io.Writer) *passes {
	ps := &passes{
		progDetectS: make([][]float64, len(progs)),
		progBaseS:   make([][]float64, len(progs)),
	}
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		var wall, cpu float64
		failed := false
		for i, p := range progs {
			runtime.GC()
			var base []float64
			for spent := time.Duration(0); spent < baselineTarget; {
				t0 := time.Now()
				p.baseline()
				d := time.Since(t0)
				spent += d
				base = append(base, d.Seconds())
			}
			ps.progBaseS[i] = append(ps.progBaseS[i], median(base))
			runtime.GC()
			c0 := cpuSeconds()
			t0 := time.Now()
			rep, err := p.detect(p.cfg)
			d := time.Since(t0).Seconds()
			cpu += cpuSeconds() - c0
			wall += d
			ps.progDetectS[i] = append(ps.progDetectS[i], d)
			if err := p.check(rep, err, p.cfg.Mem); err != nil {
				fmt.Fprintf(log, "pass %d failed: %v\n", n, err)
				failed = true
			}
		}
		ps.attempted++
		if failed {
			ps.failed++
		}
		ps.detectS = append(ps.detectS, wall)
		ps.cpuS = append(ps.cpuS, cpu)
	}
	return ps
}

// baselineS is the summed median RunSeq time of the programs.
func (ps *passes) baselineS() float64 {
	s := 0.0
	for _, b := range ps.progBaseS {
		s += median(b)
	}
	return s
}

// overheadX is the paper's overhead: the geomean over programs of
// full-detection time over RunSeq time on the same instance. Each ratio
// is the median over passes of the pass's own ratio, so both times of a
// ratio come from the same few seconds of the machine's life.
func (ps *passes) overheadX() float64 {
	ratios := make([]float64, len(ps.progDetectS))
	for i := range ratios {
		r := make([]float64, len(ps.progDetectS[i]))
		for k, d := range ps.progDetectS[i] {
			r[k] = d / ps.progBaseS[i][k]
		}
		ratios[i] = median(r)
	}
	return geomean(ratios)
}

// runEndToEnd is the untraced run: it reports every end-to-end metric.
func runEndToEnd(w workload, seed uint64, budget time.Duration, log io.Writer) (*result, error) {
	var progs []*program
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		progs = nil // let the previous set-up's programs be collected
		runtime.GC()
		var d time.Duration
		var err error
		if progs, d, err = setup(w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	ps := measurePasses(progs, budget, log)
	r := newResult(ps.attempted, ps.failed)
	r.add("detect_s", median(ps.detectS), "s")
	r.add("overhead_x", ps.overheadX(), "x")
	r.add("baseline_s", ps.baselineS(), "s")
	r.add("cpu_s", median(ps.cpuS), "s")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("pass_frac", float64(ps.attempted-ps.failed)/float64(ps.attempted), "frac")
	r.add("setup_s", median(setups), "s")
	fmt.Fprintf(log, "passes=%d detect_s q1=%.4f q3=%.4f\n", ps.attempted, quantile(ps.detectS, 0.25), quantile(ps.detectS, 0.75))
	return r, nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
