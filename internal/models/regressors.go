package models

import (
	"fmt"
	"math"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/ml"
	"repro/internal/util"
)

// costClipLo/Hi bound cost ratios to the paper's 10^-2..10^2 window.
const (
	costClipLo = 1e-2
	costClipHi = 1e2
)

// PlanRegressor is the plan-level cost model of §6.1(b) (Akdere et al.
// style): it learns log10(execution cost) from a single plan's channel
// vector, and compares plans by predicted cost.
type PlanRegressor struct {
	Feat  *feat.Featurizer
	Model ml.Regressor
	Alpha float64
}

// NewPlanRegressor wires a base regressor to a featurizer.
func NewPlanRegressor(f *feat.Featurizer, m ml.Regressor, alpha float64) *PlanRegressor {
	if alpha <= 0 {
		alpha = expdata.DefaultAlpha
	}
	return &PlanRegressor{Feat: f, Model: m, Alpha: alpha}
}

// Train fits on individual executed plans (both sides of the pairs).
func (r *PlanRegressor) Train(plans []*expdata.ExecutedPlan) error {
	if len(plans) == 0 {
		return fmt.Errorf("models: no training plans")
	}
	X := make([][]float64, len(plans))
	y := make([]float64, len(plans))
	for i, ep := range plans {
		X[i] = r.Feat.Plan(ep.Plan)
		y[i] = math.Log10(math.Max(ep.Cost, 1e-9))
	}
	return r.Model.Fit(X, y)
}

// PredictCost returns the predicted execution cost of a plan.
func (r *PlanRegressor) PredictCost(p *plan.Plan) float64 {
	return math.Pow(10, r.Model.Predict(r.Feat.Plan(p)))
}

// Compare implements Comparator by comparing predicted costs.
func (r *PlanRegressor) Compare(p1, p2 *plan.Plan) expdata.Label {
	return expdata.LabelOf(r.PredictCost(p1), r.PredictCost(p2), r.Alpha)
}

// OperatorRegressor is the operator-level cost model of §6.1(a) (Li et al.
// style): one regressor per physical operator predicts the operator's cost
// from its node features; a plan's cost is the sum over its nodes.
type OperatorRegressor struct {
	Alpha float64
	// NewModel constructs the per-operator base regressor.
	NewModel func() ml.Regressor

	perOp    map[plan.Op]ml.Regressor
	fallback float64 // mean node cost for operators never seen in training
}

// NewOperatorRegressor returns an operator-level model.
func NewOperatorRegressor(newModel func() ml.Regressor, alpha float64) *OperatorRegressor {
	if alpha <= 0 {
		alpha = expdata.DefaultAlpha
	}
	return &OperatorRegressor{Alpha: alpha, NewModel: newModel, perOp: map[plan.Op]ml.Regressor{}}
}

// nodeFeatures extracts an operator's local features: estimated rows,
// bytes processed, output bytes, node cost, child rows, and fan-in.
func nodeFeatures(n *plan.Node) []float64 {
	var childRows float64
	for _, c := range n.Children() {
		childRows += c.EstRows
	}
	return []float64{
		n.EstRows,
		n.EstBytesProcessed,
		n.EstBytesOut(),
		n.EstCost,
		childRows,
		float64(len(n.Children())),
		float64(n.Mode),
		float64(n.Par),
	}
}

// Train learns per-operator models from executed plans, supervised by the
// per-operator actual costs the executor recorded (the counters production
// telemetry exposes). Features are estimate-only, so inference works on
// hypothetical plans.
func (r *OperatorRegressor) Train(plans []*expdata.ExecutedPlan) error {
	if len(plans) == 0 {
		return fmt.Errorf("models: no training plans")
	}
	X := map[plan.Op][][]float64{}
	y := map[plan.Op][]float64{}
	var totalCost, totalNodes float64
	for _, ep := range plans {
		// ep.Actuals follows Walk's pre-order. A node without a measured
		// cost is supervised by its estimated share of the plan's cost.
		i := 0
		ep.Plan.Root.Walk(func(n *plan.Node) {
			var nodeCost float64
			if i < len(ep.Actuals) {
				nodeCost = ep.Actuals[i].Cost
			}
			i++
			if nodeCost <= 0 {
				nodeCost = n.EstCost * ep.Cost / math.Max(ep.Plan.EstTotalCost, 1e-9)
			}
			X[n.Op] = append(X[n.Op], nodeFeatures(n))
			y[n.Op] = append(y[n.Op], math.Log10(math.Max(nodeCost, 1e-9)))
			totalCost += nodeCost
			totalNodes++
		})
	}
	r.fallback = totalCost / math.Max(totalNodes, 1)
	for op, xs := range X {
		m := r.NewModel()
		if err := m.Fit(xs, y[op]); err != nil {
			return err
		}
		r.perOp[op] = m
	}
	return nil
}

// PredictCost sums per-operator predictions over the plan.
func (r *OperatorRegressor) PredictCost(p *plan.Plan) float64 {
	var total float64
	p.Root.Walk(func(n *plan.Node) {
		if m, ok := r.perOp[n.Op]; ok {
			total += math.Pow(10, m.Predict(nodeFeatures(n)))
		} else {
			total += r.fallback
		}
	})
	return total
}

// Compare implements Comparator.
func (r *OperatorRegressor) Compare(p1, p2 *plan.Plan) expdata.Label {
	return expdata.LabelOf(r.PredictCost(p1), r.PredictCost(p2), r.Alpha)
}

// PairRatioRegressor is the plan-pair regressor of §6.1(c): it learns
// log10(ExecCost(P2)/ExecCost(P1)) on pair features, with the ratio clipped
// to [10^-2, 10^2], and thresholds the predicted ratio at ±α.
type PairRatioRegressor struct {
	Feat  *feat.Featurizer
	Model ml.Regressor
	Alpha float64
}

// NewPairRatioRegressor wires a base regressor to a pair featurizer.
func NewPairRatioRegressor(f *feat.Featurizer, m ml.Regressor, alpha float64) *PairRatioRegressor {
	if alpha <= 0 {
		alpha = expdata.DefaultAlpha
	}
	return &PairRatioRegressor{Feat: f, Model: m, Alpha: alpha}
}

// Train fits the log-ratio target on labeled pairs.
func (r *PairRatioRegressor) Train(pairs []expdata.Pair) error {
	if len(pairs) == 0 {
		return fmt.Errorf("models: no training pairs")
	}
	X := make([][]float64, len(pairs))
	y := make([]float64, len(pairs))
	for i, p := range pairs {
		X[i] = r.Feat.Pair(p.P1.Plan, p.P2.Plan)
		ratio := util.Clip(p.P2.Cost/math.Max(p.P1.Cost, 1e-9), costClipLo, costClipHi)
		y[i] = math.Log10(ratio)
	}
	return r.Model.Fit(X, y)
}

// PredictRatio returns the predicted ExecCost(P2)/ExecCost(P1).
func (r *PairRatioRegressor) PredictRatio(p1, p2 *plan.Plan) float64 {
	return math.Pow(10, r.Model.Predict(r.Feat.Pair(p1, p2)))
}

// Compare implements Comparator by thresholding the predicted ratio.
func (r *PairRatioRegressor) Compare(p1, p2 *plan.Plan) expdata.Label {
	ratio := r.PredictRatio(p1, p2)
	switch {
	case ratio > 1+r.Alpha:
		return expdata.Regression
	case ratio < 1-r.Alpha:
		return expdata.Improvement
	default:
		return expdata.Unsure
	}
}

// UniquePlans extracts the distinct executed plans referenced by pairs
// (for training the plan-level and operator-level regressors).
func UniquePlans(pairs []expdata.Pair) []*expdata.ExecutedPlan {
	seen := map[*expdata.ExecutedPlan]bool{}
	var out []*expdata.ExecutedPlan
	for _, p := range pairs {
		for _, ep := range []*expdata.ExecutedPlan{p.P1, p.P2} {
			if !seen[ep] {
				seen[ep] = true
				out = append(out, ep)
			}
		}
	}
	return out
}
