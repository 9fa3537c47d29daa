// Command perfbench is futurerd's repository benchmark. It runs one of
// four detection workloads and prints, as the last line of its standard
// output, one JSON object with the workload's end-to-end metrics
// (--trace 0) or its per-layer metrics (--trace 1). README.md lists the
// workloads, the metrics and which layer moves which end-to-end metric.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload wavefront --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// gcPercent is the pinned GOGC: Go's default, which a user's process
// runs with.
const gcPercent = 100

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "wavefront, readshared, futures-dense or replay-2w")
	seed := fs.Uint64("seed", 1, "input seed, passed on to the workload constructors")
	seconds := fs.Int("seconds", 25, "how long the timed passes run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	spans := fs.String("spans", "", "file the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (wavefront, readshared, futures-dense, replay-2w), --seconds >= 1 and --trace 0|1\n")
		return 2
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(gcPercent)
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d %s GOMAXPROCS=%d GOGC=%d\n",
		w.name, *seed, *seconds, *traced, runtime.Version(), runtime.GOMAXPROCS(0), gcPercent)

	budget := time.Duration(*seconds) * time.Second
	var r *result
	var err error
	if *traced == 1 {
		r, err = runTraced(w, *seed, budget, *spans, stderr)
	} else {
		r, err = runEndToEnd(w, *seed, budget, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's summary line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(attempted, failed int) *result {
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

func (r *result) add(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// print writes one line per metric and then the JSON summary line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
