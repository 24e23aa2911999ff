// Command schedbench is the scheduler's end-to-end benchmark. One process
// runs one named workload for a fixed time, checks every output against
// the benchmark's own SINR checker, and prints its metrics as the last
// line of standard output:
//
//	bash schedbench/run.sh --workload greedy-sparse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run calls each layer from the benchmark's own code, times it, and
// reports the per-layer metrics instead. README.md describes the
// workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// procs is the fixed GOMAXPROCS of every run. One processor keeps the
// figures comparable across machines with different core counts and
// away from the scheduling noise of a shared two-CPU box.
const procs = 1

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up state is the one measured.
const setupReps = 3

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_mean_ms", "ms"},
	{"slots", "slots"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run. Every traced run reports
// all of them; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"instance.gen_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"affect.build_s", "s"},
	{"affect.bytes_mb", "MB"},
	{"sparse.build_s", "s"},
	{"sparse.bytes_mb", "MB"},
	{"sparse.near_entries", "count"},
	{"sparse.cells", "count"},
	{"sparse.canadd_calls", "count"},
	{"sparse.canadd_accept_ratio", "ratio"},
	{"sparse.canadd_s", "s"},
	{"sparse.update_s", "s"},
	{"sparse.remove_calls", "count"},
	{"coloring.greedy_s", "s"},
	{"sinr.check_s", "s"},
	{"online.arrive_p50_us", "us"},
	{"online.depart_p50_us", "us"},
	{"online.arrive_p99_us", "us"},
	{"online.rowops_per_event", "count"},
	{"online.moves_per_event", "count"},
	{"online.repairs_per_event", "count"},
	{"hst.build_s", "s"},
	{"treestar.stage2_s", "s"},
	{"treestar.stage3_s", "s"},
	{"treestar.stage5_s", "s"},
	{"treestar.classes", "count"},
}

// runner is one set-up workload, ready to measure.
type runner interface {
	// genSeconds is the time set-up spent generating inputs.
	genSeconds() float64
	// run measures operations in whole rounds until d has passed, checks
	// every output, and reports what it saw.
	run(d time.Duration) *outcome
}

// outcome is what one measured run produced.
type outcome struct {
	attempted, failed int
	// opNs is the wall time of every timed operation that succeeded.
	opNs []int64
	// slotSum/slotN average the schedule length over the operations.
	slotSum float64
	slotN   int
	// problems lists every failed output check; one makes the run incorrect.
	problems []string
	// errs lists the errors of the failed operations.
	errs []string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// info holds figures printed for the reader but not gated on.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{layers: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// fail counts a failed operation. It leaves the run correct: correctness
// speaks of the operations that succeeded.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type provenance struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload and prints its report. It
// returns 0 for a correct run, 1 for a run whose outputs failed a check,
// and 2 for bad flags or a workload that could not be set up.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 15, "how long to measure")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "schedbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "schedbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))

	traced := *trace == 1
	setupS, genS, r, err := setUp(w, *seed, traced)
	if err != nil {
		fmt.Fprintf(stderr, "schedbench: %s: %v\n", w.name, err)
		return 2
	}
	out := r.run(time.Duration(*seconds) * time.Second)

	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		out.layers["instance.gen_s"] = median(genS)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{out.layers[d.name], d.unit}
		}
	} else {
		values := map[string]float64{
			"setup_s":     median(setupS),
			"op_mean_ms":  meanMs(out.opNs),
			"slots":       out.slotSum / float64(max(out.slotN, 1)),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
	}
	for _, e := range out.errs {
		fmt.Fprintln(stderr, "schedbench: operation failed:", e)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "schedbench: check failed:", p)
	}

	prov := provenance{
		Commit: commitID, Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel(),
		Workload: w.name, Seed: *seed, Seconds: *seconds, Traced: traced,
		Attempted: out.attempted, Failed: out.failed,
	}
	out.info["ops_timed"] = len(out.opNs)
	out.info["op_p50_ms"] = quantileNs(out.opNs, 0.5) / 1e6
	out.info["setup_s_all"] = setupS
	for _, line := range []any{
		map[string]any{"provenance": prov},
		map[string]any{"info": out.info},
		res,
	} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "schedbench:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp sets the workload up setupReps times and returns the set-up
// times, the input-generation times and the last set-up state.
func setUp(w workload, seed int64, traced bool) (setupS, genS []float64, r runner, err error) {
	for k := 0; k < setupReps; k++ {
		r = nil // let the previous state be collected before timing the next
		runtime.GC()
		start := time.Now()
		r, err = w.setup(seed, traced)
		if err != nil {
			return nil, nil, nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		genS = append(genS, r.genSeconds())
	}
	return setupS, genS, r, nil
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// meanMs is the mean of the samples in milliseconds (0 for none).
func meanMs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	return float64(sum(ns)) / float64(len(ns)) / 1e6
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNs returns the q-quantile of the samples by linear
// interpolation between order statistics (q = 0.5 is the median).
func quantileNs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo]) + frac*float64(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel names the processor, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commitID is the revision the binary was built from; run.sh sets it
// with -ldflags "-X main.commitID=...".
var commitID = "unknown"
