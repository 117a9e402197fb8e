package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := tailNote(lat); !strings.Contains(got, "n=1000") || !strings.Contains(got, "p99=990.000ms") {
		t.Errorf("tailNote = %q, want the sample count and p99", got)
	}
	if got := tailNote(lat[:15]); !strings.Contains(got, "n=15") || !strings.Contains(got, "too few") {
		t.Errorf("tailNote of 15 samples = %q, want no tail percentile", got)
	}
}

func TestQuantileCountsFailuresAsMissingTheLimit(t *testing.T) {
	lat := []float64{1, 2, 3, inf}
	if got := quantile(sortedCopy(lat), 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
	if got := quantile(sortedCopy(lat), 0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which an external spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestVerdictRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		head   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"faster everywhere", shift(-10), false, 0.1, "improved"},
		{"slower beyond the bound", shift(20), false, 0.1, "regressed"},
		{"slower within the bound", shift(3), false, 0.1, "unchanged"},
		{"higher is better", shift(10), true, 0.1, "improved"},
		{"spread wider than the bound", shift(-0.5), false, 0.001, "unresolved"},
	} {
		if got := verdictFor(base, c.head, c.higher, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "job", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "opt", ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{Name: "opt", ID: 3, Parent: 1, StartNS: 30, EndNS: 60},   // overlaps the first child
		{Name: "gate", ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
	}
	got := map[string]spanStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	if s := got["job"]; s.Total != 100 || s.Self != 40 {
		t.Errorf("job total/self = %v/%v, want 100/40", s.Total, s.Self)
	}
	if s := got["opt"]; s.Count != 2 || s.Self != 60 {
		t.Errorf("opt count/self = %d/%v, want 2/60", s.Count, s.Self)
	}
}
