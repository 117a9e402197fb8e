package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/models"
)

// span is one recorded interval of the traced run. Spans of one request
// share Req; Parent links a span to the span that caused it.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	// StartNS and EndNS are nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and reads no clock, so the untraced run pays only a
// branch per call site.
type tracer struct {
	on bool
	t0 time.Time

	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// active is an open span; end records it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

// start opens a span under parent (0 = root).
func (t *tracer) start(name string, parent int64, req string) active {
	if !t.on {
		return active{}
	}
	return active{t: t, id: t.next.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

// end closes the span.
func (a active) end() {
	if a.t != nil {
		a.t.add(a.name, a.id, a.parent, a.req, a.start, time.Now())
	}
}

// record adds a finished span with known bounds and returns its id (0 when
// tracing is off). Phase spans reported by the daemon arrive this way.
func (t *tracer) record(name string, parent int64, req string, start, end time.Time) int64 {
	if !t.on {
		return 0
	}
	id := t.next.Add(1)
	t.add(name, id, parent, req, start, end)
	return id
}

func (t *tracer) add(name string, id, parent int64, req string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) []spanStat {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	by := map[string]*spanStat{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		dur := s.EndNS - s.StartNS
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s.StartNS, s.EndNS, children[s.ID]))
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// printSelfTimes writes the per-name span table of the traced run.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total", "self")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "%-34s %8d %12s %12s\n", st.Name, st.Count,
			st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond))
	}
}

// gateTimer counts and times the verdicts a comparator hands the tuner.
type gateTimer struct {
	calls, pairs, busyNS atomic.Int64
}

// timedComparator is a timing decorator for models.Comparator.
type timedComparator struct {
	c models.Comparator
	t *gateTimer
}

func (tc timedComparator) Compare(p1, p2 *plan.Plan) expdata.Label {
	t0 := time.Now()
	v := tc.c.Compare(p1, p2)
	tc.t.busyNS.Add(int64(time.Since(t0)))
	tc.t.calls.Add(1)
	tc.t.pairs.Add(1)
	return v
}

// timedBatchComparator also forwards CompareBatch, so a tuner keeps taking
// the batched gate path it takes with the undecorated comparator.
type timedBatchComparator struct {
	timedComparator
	bc models.BatchComparator
}

func (tc timedBatchComparator) CompareBatch(pairs []models.PlanPair, out []expdata.Label) []expdata.Label {
	t0 := time.Now()
	out = tc.bc.CompareBatch(pairs, out)
	tc.t.busyNS.Add(int64(time.Since(t0)))
	tc.t.calls.Add(1)
	tc.t.pairs.Add(int64(len(pairs)))
	return out
}

// timeComparator decorates c with t, keeping BatchComparator when c has it.
func timeComparator(c models.Comparator, t *gateTimer) models.Comparator {
	tc := timedComparator{c: c, t: t}
	if bc, ok := c.(models.BatchComparator); ok {
		return timedBatchComparator{timedComparator: tc, bc: bc}
	}
	return tc
}
