package tuner

import (
	"testing"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/util"
)

// scriptedCmp answers Compare(incumbent, p) with the verdict scripted for
// p and counts the calls.
type scriptedCmp struct {
	verdicts map[*plan.Plan]expdata.Label
	calls    int
}

func (s *scriptedCmp) Compare(_, p *plan.Plan) expdata.Label {
	s.calls++
	return s.verdicts[p]
}

// scanStep is the step choice stepWinner replaced: ask better about every
// survivor in candidate order and keep the cheapest accepted one, a later
// one only when strictly cheaper.
func scanStep(cmp *scriptedCmp, incumbent *plan.Plan, survivors []*queryProbe) *queryProbe {
	var step *queryProbe
	for _, pr := range survivors {
		if !better(cmp, incumbent, pr.p) {
			continue
		}
		if step == nil || pr.p.EstTotalCost < step.p.EstTotalCost {
			step = pr
		}
	}
	return step
}

// stepCase fabricates survivors with the given costs and verdicts.
func stepCase(costs []float64, verdicts []expdata.Label) ([]*queryProbe, *scriptedCmp) {
	cmp := &scriptedCmp{verdicts: map[*plan.Plan]expdata.Label{}}
	survivors := make([]*queryProbe, len(costs))
	for i, c := range costs {
		p := &plan.Plan{EstTotalCost: c}
		survivors[i] = &queryProbe{p: p}
		cmp.verdicts[p] = verdicts[i]
	}
	return survivors, cmp
}

// compareSteps runs stepWinner and scanStep on the same survivors and
// returns the index of each winner (-1 for none) and each one's calls.
func compareSteps(incumbent float64, costs []float64, verdicts []expdata.Label) (got, want, gotCalls, wantCalls int) {
	survivors, cmp := stepCase(costs, verdicts)
	inc := &plan.Plan{EstTotalCost: incumbent}
	index := func(w *queryProbe) int {
		for i, pr := range survivors {
			if pr == w {
				return i
			}
		}
		return -1
	}
	got = index(stepWinner(cmp, inc, append([]*queryProbe(nil), survivors...)))
	gotCalls, cmp.calls = cmp.calls, 0
	want = index(scanStep(cmp, inc, survivors))
	return got, want, gotCalls, cmp.calls
}

// TestStepWinnerMatchesScan pins stepWinner to the scan it replaced on
// fabricated survivors: it picks the same winner, and consults the
// comparator no more often.
func TestStepWinnerMatchesScan(t *testing.T) {
	const (
		reg   = expdata.Regression
		imp   = expdata.Improvement
		unsur = expdata.Unsure
	)
	for _, c := range []struct {
		name      string
		costs     []float64
		verdicts  []expdata.Label
		winner    int
		calls     int
		scanCalls int
	}{
		// The first 80 is a regression. The second, an unsure verdict
		// below the incumbent's 100, wins: the 90 before it costs more
		// and the 80 after it only ties.
		{"ties", []float64{90, 80, 80, 80, 95}, []expdata.Label{unsur, reg, unsur, unsur, unsur}, 2, 2, 5},
		// An improvement verdict accepts 120 above the incumbent; the
		// cheaper 110 is a regression and 130 is unsure above it.
		{"improvement above the incumbent", []float64{130, 120, 110}, []expdata.Label{unsur, imp, reg}, 1, 2, 3},
		{"none accepted", []float64{100, 150}, []expdata.Label{unsur, reg}, -1, 2, 2},
	} {
		got, want, calls, scanCalls := compareSteps(100, c.costs, c.verdicts)
		if got != want || got != c.winner {
			t.Fatalf("%s: stepWinner picked %d, the scan %d, want %d", c.name, got, want, c.winner)
		}
		if calls != c.calls || scanCalls != c.scanCalls {
			t.Fatalf("%s: stepWinner made %d comparator calls and the scan %d, want %d and %d", c.name, calls, scanCalls, c.calls, c.scanCalls)
		}
	}

	// Random steps with many ties, many longer than the 12 elements slices
	// sorts by insertion, so the tie order rests on the stable sort.
	rng := util.NewRNG(11)
	labels := []expdata.Label{expdata.Regression, expdata.Improvement, expdata.Unsure}
	var fewer int
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(30)
		costs := make([]float64, n)
		verdicts := make([]expdata.Label, n)
		for i := range costs {
			costs[i] = float64(80 + 10*rng.Intn(4))
			verdicts[i] = labels[rng.Intn(len(labels))]
		}
		got, want, calls, scanCalls := compareSteps(100, costs, verdicts)
		if got != want {
			t.Fatalf("trial %d: costs %v verdicts %v: stepWinner picked %d, the scan %d", trial, costs, verdicts, got, want)
		}
		if calls > scanCalls {
			t.Fatalf("trial %d: stepWinner made %d comparator calls, the scan %d", trial, calls, scanCalls)
		}
		if calls < scanCalls {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatal("stepWinner never saved a comparator call")
	}
}
