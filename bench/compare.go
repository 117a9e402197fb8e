package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRecord is one run's result line in a -record file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// cmdRepeat is the calibration mode: it runs every named workload n times,
// each in its own child process under seeds seed..seed+n-1 with the flags
// in pass, and prints the median, quartiles and spreads of every metric per
// workload. Child processes keep one run's heap, caches and obs counters
// out of the next.
func cmdRepeat(names []string, seed int64, n int, record string, pass []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rec *os.File
	if record != "" {
		if rec, err = os.OpenFile(record, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
			return err
		}
		defer rec.Close()
	}
	for _, w := range names {
		var runs []result
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, append([]string{"-workload", w, "-seed", strconv.FormatInt(s, 10)}, pass...)...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if perr != nil {
				return fmt.Errorf("%s seed %d: %v (%v)", w, s, perr, err)
			}
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: run failed its checks (%v)\n", w, s, err)
			}
			runs = append(runs, res)
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w, s, lastLine(out))
			if rec != nil {
				line, _ := json.Marshal(runRecord{Workload: w, Seed: s, Result: res})
				if _, err := fmt.Fprintln(rec, string(line)); err != nil {
					return err
				}
			}
		}
		printSpreads(os.Stdout, w, runs)
	}
	return nil
}

// lastLine is the last non-empty line of out.
func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}

// lastResult decodes the result line a run ends with.
func lastResult(out []byte) (result, error) {
	var res result
	if len(bytes.TrimSpace(out)) == 0 {
		return res, fmt.Errorf("no output")
	}
	err := json.Unmarshal([]byte(lastLine(out)), &res)
	return res, err
}

// printSpreads prints, per metric, the median, quartiles, the quartile
// spread and the max/min spread of a workload's runs, each as a share of
// the median.
func printSpreads(w io.Writer, workload string, runs []result) {
	fmt.Fprintf(w, "%-10s %-34s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, name := range metricNames(runs) {
		vs := values(runs, name)
		q1, q3 := quartiles(vs)
		med := median(vs)
		lo, hi := minMax(vs)
		fmt.Fprintf(w, "%-10s %-34s %12.6g %12.6g %12.6g %8.4f %8.4f\n", workload, name, med, q1, q3, spread(vs), (hi-lo)/math.Abs(med))
	}
}

func metricNames(runs []result) []string {
	set := map[string]bool{}
	for _, r := range runs {
		for k := range r.Metrics {
			set[k] = true
		}
	}
	return sortedKeys(set)
}

func values(runs []result, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// cmdCompare compares the runs of a parent commit (base) with the runs of a
// change (head), both recorded with -repeat -record while alternating which
// side runs first. For every (metric, workload) it applies the rule of the
// choosing-metrics guide: the change improved a metric only when it wins
// at least nine tenths of the pairs (ties count for neither) and the
// medians differ by more than the parent's interquartile distance; it
// regressed when its median is worse than the parent's by more than the
// metric's bound; a metric whose parent spread exceeds its bound is
// unresolved, unless every run of the change beats every run of the parent.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-benchmark BENCHMARK.json] <base runs.jsonl> <head runs.jsonl>")
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-12s %5s %12s %12s %12s %6s %-10s\n", "workload", "metric", "pairs", "base med", "head med", "base iqr", "wins", "verdict")
	for _, w := range sortedKeys(base) {
		hs, ok := head[w]
		if !ok {
			continue
		}
		bs := base[w]
		n := min(len(bs), len(hs))
		for _, m := range bf.EndToEnd {
			b, h := values(bs[:n], m.Name), values(hs[:n], m.Name)
			if len(b) != n || len(h) != n || n == 0 {
				continue
			}
			v := verdictFor(b, h, m.Better == "higher", m.Bound)
			q1, q3 := quartiles(b)
			fmt.Printf("%-10s %-12s %5d %12.6g %12.6g %12.6g %6d %-10s\n", w, m.Name, n, median(b), median(h), q3-q1, v.wins, v.verdict)
		}
	}
	return nil
}

// comparison is one (metric, workload) outcome of compare.
type comparison struct {
	wins    int
	verdict string
}

// verdictFor applies compare's rule to paired runs b (parent) and h
// (change) of one metric.
func verdictFor(b, h []float64, higherBetter bool, bound float64) comparison {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	var c comparison
	for i := range b {
		if better(h[i], b[i]) {
			c.wins++
		}
	}
	mb, mh := median(b), median(h)
	q1, q3 := quartiles(b)
	lo, hi := minMax(b)
	hlo, hhi := minMax(h)
	allBetter := (higherBetter && hlo > hi) || (!higherBetter && hhi < lo)
	worse := (mh - mb) / math.Abs(mb)
	if higherBetter {
		worse = -worse
	}
	switch {
	case float64(c.wins) >= 0.9*float64(len(b)) && better(mh, mb) && math.Abs(mh-mb) > q3-q1:
		c.verdict = "improved"
	case worse > bound:
		c.verdict = "regressed"
	case spread(b) > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// readRecords reads a -record file, grouping runs by workload in file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r.Result)
	}
	return out, sc.Err()
}
