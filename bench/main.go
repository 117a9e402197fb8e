// Command bench is the end-to-end benchmark of the tuning daemon behind
// `aimai serve`. It starts the real internal/server daemon in-process on a
// loopback port, drives it over HTTP from at most two request goroutines
// and two connections, checks the daemon's outputs, and prints every
// end-to-end metric of BENCHMARK.json by name and unit. A traced run
// (-trace 1) prints the per-layer metrics instead and writes the spans.
//
//	bash bench/run.sh --workload tune --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --workload sync-hot --repeat 5 --record runs.jsonl
//	bash bench/run.sh compare base.jsonl head.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed, and metrics. The exit status is non-zero when
// any output check fails. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median, and only the last set-up's daemon serves the timed phase. A
// -smoke run sets up once.
const setupRuns = 3

// env is one run's configuration, shared by the workloads.
type env struct {
	seed    int64
	seconds float64
	scale   float64
	setups  int
	tr      *tracer
	// scratch is a per-run directory for daemon data, removed at exit.
	scratch string
}

func (e *env) traced() bool { return e.tr.on }

// deadline returns the end of a timed phase that starts now and lasts
// share of the run's seconds.
func (e *env) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * e.seconds * float64(time.Second)))
}

// check is one output check: a failed check counts against the run's
// operations and makes the exit status non-zero.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	checks            []check
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	if !ok {
		o.failed++
	}
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// workloadDef names a workload, says why it is in the benchmark, and runs
// it: three set-ups, the timed phase, the output checks and, when traced,
// the in-process replays.
type workloadDef struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workloadDef{
	{"tune", whyTune, runTune},
	{"sync-hot", whySyncHot, runSyncHot},
	{"sync-miss", whySyncMiss, runSyncMiss},
	{"learn", whyLearn, runLearn},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// timeSetups runs build e.setups times and returns the last result and the
// median set-up time in seconds. Each earlier result is torn down before
// the next set-up starts, and garbage is collected first so a set-up does
// not pay for its predecessor.
func timeSetups[S any](e *env, build func(parent int64) (S, error), teardown func(S)) (S, float64, error) {
	var last S
	var times []float64
	for i := 0; i < e.setups; i++ {
		runtime.GC()
		sp := e.tr.start("setup", 0, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		s, err := build(sp.id)
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
		sp.end()
		if i < e.setups-1 {
			teardown(s)
		}
		last = s
	}
	return last, median(times), nil
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := cmdCompare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(cmdRun(os.Args[1:]))
}

// cmdRun parses the run flags and runs one or all workloads, or the
// calibration mode. It returns the exit status.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed: draws every request, subset, budget, and tenant order")
	seconds := fs.Float64("seconds", 15, "length of the measured part of a run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end metrics and writes spans to .bench_build/spans")
	smoke := fs.Bool("smoke", false, "small databases and 1 s phases: checks that every workload runs, measures nothing")
	repeat := fs.Int("repeat", 0, "calibration: run each workload this many times, under seeds seed..seed+N-1, in child processes")
	record := fs.String("record", "", "with -repeat, append every run's result line to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1 and -seconds a positive length")
		return 2
	}
	names := workloadNames()
	if *name != "all" {
		if findWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
			return 2
		}
		names = []string{*name}
	}
	if *repeat > 0 {
		pass := []string{"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace)}
		if *smoke {
			pass = append(pass, "-smoke")
		}
		if err := cmdRepeat(names, *seed, *repeat, *record, pass); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	scale, setups := fullScale, setupRuns
	if *smoke {
		scale, setups, *seconds = smokeScale, 1, 1
	}
	obs.SetEnabled(true) // as `aimai serve` runs the daemon
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		res, err := runOne(findWorkload(n), &env{seed: *seed, seconds: *seconds, scale: scale, setups: setups, tr: newTracer(*trace == 1)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[n+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// runOne runs one workload and prints its human-readable report.
func runOne(w *workloadDef, e *env) (result, error) {
	dir, err := buildDir()
	if err != nil {
		return result{}, err
	}
	if e.scratch, err = os.MkdirTemp(dir, "run-"); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.scratch)
	traced := e.traced()
	fmt.Printf("== %s (seed %d, %gs measured, scale %g, trace %v)\n", w.name, e.seed, e.seconds, e.scale, traced)
	o, err := w.run(e)
	if err != nil {
		return result{}, err
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, c := range o.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("  check %s %-28s %s\n", status, c.name, c.detail)
	}
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	defs, values := endToEnd, o.e2e
	if traced {
		defs, values = perLayer, o.layer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			return result{}, fmt.Errorf("workload %s did not report metric %s", w.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Nothing was measured, as when every operation failed; an
			// end-to-end metric the run cannot report fails the run.
			fmt.Printf("  %s: no measurement\n", d.name)
			v = 0
			res.Correct = res.Correct && traced
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	if traced {
		spansPath := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
		if err := e.tr.write(spansPath); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		printSelfTimes(os.Stdout, e.tr.spans)
		fmt.Printf("  spans: %d written to %s\n", len(e.tr.spans), spansPath)
	}
	return res, nil
}

// buildDir is the directory every file a run writes goes under:
// .bench_build in the working directory.
func buildDir() (string, error) {
	dir, err := filepath.Abs(".bench_build")
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
