// Package feat implements the paper's plan featurization (§3): each plan
// becomes a fixed-dimension vector per feature channel over the operator
// key space (Operator)_(Mode)_(Parallelism), and plan pairs are combined
// with one of the transforms of §3.3 (concat, pair_diff, pair_diff_ratio,
// pair_diff_normalized).
//
// Only optimizer-estimated quantities are used — never execution actuals —
// because the tuner must infer on hypothetical plans that have never run
// (the paper's "learn from information in estimated query plans" principle).
package feat

import (
	"fmt"
	"sync"

	"repro/internal/engine/plan"
	"repro/internal/util"
)

// Channel identifies one way of weighting plan operators (paper Table 1).
type Channel int

// Feature channels.
const (
	// EstNodeCost uses the optimizer's estimated node cost as the weight.
	EstNodeCost Channel = iota
	// EstBytesProcessed uses the estimated bytes processed by a node.
	EstBytesProcessed
	// EstRows uses the estimated rows produced by a node.
	EstRows
	// EstBytes uses the estimated bytes output by a node.
	EstBytes
	// LeafWeightEstRowsWeightedSum propagates leaf estimated-row weights
	// up the tree, weighting by child height (structural information).
	LeafWeightEstRowsWeightedSum
	// LeafWeightEstBytesWeightedSum is the bytes variant of the above.
	LeafWeightEstBytesWeightedSum
	numChannels
)

// NumChannels is the number of defined feature channels.
const NumChannels = int(numChannels)

var channelNames = [...]string{
	"EstNodeCost", "EstBytesProcessed", "EstRows", "EstBytes",
	"LeafWeightEstRowsWeightedSum", "LeafWeightEstBytesWeightedSum",
}

// String implements fmt.Stringer.
func (c Channel) String() string {
	if int(c) < len(channelNames) {
		return channelNames[c]
	}
	return fmt.Sprintf("Channel(%d)", int(c))
}

// DefaultChannels is the channel subset used throughout the paper's main
// experiments: a measure of work plus a structural channel.
func DefaultChannels() []Channel {
	return []Channel{EstNodeCost, LeafWeightEstBytesWeightedSum}
}

// PlanVector computes one channel's vector for a plan: one attribute per
// operator key, summing the weights of operators sharing a key.
func PlanVector(p *plan.Plan, c Channel) []float64 {
	return PlanVectorInto(p, c, make([]float64, plan.NumKeys))
}

// PlanVectorInto computes one channel's vector into v, reusing its
// backing array when the capacity suffices (the vector is re-zeroed
// first). Bit-identical to PlanVector.
func PlanVectorInto(p *plan.Plan, c Channel, v []float64) []float64 {
	if cap(v) < plan.NumKeys {
		v = make([]float64, plan.NumKeys)
	}
	v = v[:plan.NumKeys]
	for i := range v {
		v[i] = 0
	}
	switch c {
	case LeafWeightEstRowsWeightedSum:
		leafWeighted(p.Root, v, func(n *plan.Node) float64 { return n.EstRows })
	case LeafWeightEstBytesWeightedSum:
		leafWeighted(p.Root, v, func(n *plan.Node) float64 { return n.EstBytesOut() })
	default:
		p.Root.Walk(func(n *plan.Node) {
			var w float64
			switch c {
			case EstNodeCost:
				w = n.EstCost
			case EstBytesProcessed:
				w = n.EstBytesProcessed
			case EstRows:
				w = n.EstRows
			case EstBytes:
				w = n.EstBytesOut()
			}
			v[n.Key()] += w
		})
	}
	return v
}

// leafWeighted implements the WeightedSum channels: each leaf has weight
// leafW(n); an internal node's value is the sum over children of
// weight(child) × height(child), and its weight is the sum of child
// weights. Structural changes (join order, extra operators) shift both
// child weights and heights, so the flattened vector still encodes shape.
func leafWeighted(root *plan.Node, v []float64, leafW func(*plan.Node) float64) {
	type wh struct {
		weight float64
		height float64
	}
	var visit func(n *plan.Node) wh
	visit = func(n *plan.Node) wh {
		if n.IsLeaf() {
			w := leafW(n)
			v[n.Key()] += w
			return wh{weight: w, height: 1}
		}
		var sumW, value, maxH float64
		for _, c := range n.Children() {
			cw := visit(c)
			sumW += cw.weight
			value += cw.weight * cw.height
			if cw.height > maxH {
				maxH = cw.height
			}
		}
		v[n.Key()] += value
		return wh{weight: sumW, height: maxH + 1}
	}
	visit(root)
}

// PairTransform identifies how two plan vectors are combined (§3.3).
type PairTransform int

// Pair transforms.
const (
	// Concat concatenates the two plans' channel vectors.
	Concat PairTransform = iota
	// PairDiff takes the attribute-wise difference P2 - P1.
	PairDiff
	// PairDiffRatio divides the difference by P1's attribute, clipping on
	// division by zero.
	PairDiffRatio
	// PairDiffNormalized divides the difference by the sum of P1's
	// channel attributes, avoiding per-attribute zero denominators.
	PairDiffNormalized
	numTransforms
)

// NumTransforms is the number of defined pair transforms.
const NumTransforms = int(numTransforms)

var transformNames = [...]string{"concat", "pair_diff", "pair_diff_ratio", "pair_diff_normalized"}

// String implements fmt.Stringer.
func (t PairTransform) String() string {
	if int(t) < len(transformNames) {
		return transformNames[t]
	}
	return fmt.Sprintf("PairTransform(%d)", int(t))
}

// ratioClip bounds pair_diff_ratio attributes, the paper's clipping on
// division by zero (e.g. 10^4).
const ratioClip = 1e4

// Featurizer converts plans and plan pairs into model inputs.
type Featurizer struct {
	Channels  []Channel
	Transform PairTransform
	// IncludeTotalCost appends both plans' optimizer-estimated total costs
	// (the paper also uses the estimated plan cost as a feature).
	IncludeTotalCost bool
}

// Default returns the configuration used for the paper's headline results:
// EstNodeCost + LeafWeightEstBytesWeightedSum with pair_diff_normalized.
func Default() *Featurizer {
	return &Featurizer{
		Channels:         DefaultChannels(),
		Transform:        PairDiffNormalized,
		IncludeTotalCost: true,
	}
}

// PlanDim returns the dimensionality of a single-plan vector.
func (f *Featurizer) PlanDim() int {
	d := len(f.Channels) * plan.NumKeys
	if f.IncludeTotalCost {
		d++
	}
	return d
}

// PairDim returns the dimensionality of a pair vector.
func (f *Featurizer) PairDim() int {
	d := len(f.Channels) * plan.NumKeys
	if f.Transform == Concat {
		d *= 2
	}
	if f.IncludeTotalCost {
		d += 2
	}
	return d
}

// KeyGroups returns, for each attribute of the pair vector, the operator
// key it belongs to (or -1 for plan-level features). The partially-
// connected DNN uses this to wire per-key blocks (§6.2.1).
func (f *Featurizer) KeyGroups() []int {
	var g []int
	reps := 1
	if f.Transform == Concat {
		reps = 2
	}
	for r := 0; r < reps; r++ {
		for range f.Channels {
			for k := 0; k < plan.NumKeys; k++ {
				g = append(g, k)
			}
		}
	}
	if f.IncludeTotalCost {
		g = append(g, -1, -1)
	}
	return g
}

// ConfigEqual reports whether two featurizers emit identically laid-out
// vectors: same channels in the same order, same pair transform, and the
// same total-cost tail. Models may only be evaluated on vectors produced by
// a config-equal featurizer.
func (f *Featurizer) ConfigEqual(g *Featurizer) bool {
	if g == nil || f.Transform != g.Transform || f.IncludeTotalCost != g.IncludeTotalCost {
		return false
	}
	if len(f.Channels) != len(g.Channels) {
		return false
	}
	for i, c := range f.Channels {
		if g.Channels[i] != c {
			return false
		}
	}
	return true
}

// Plan featurizes a single plan (concatenated channels, plus the total
// estimated cost when configured). Used by the plan-level regressor.
func (f *Featurizer) Plan(p *plan.Plan) []float64 {
	out := make([]float64, 0, f.PlanDim())
	for _, c := range f.Channels {
		out = append(out, PlanVector(p, c)...)
	}
	if f.IncludeTotalCost {
		out = append(out, p.EstTotalCost)
	}
	return out
}

// Pair featurizes a plan pair (P1, P2) with the configured transform.
func (f *Featurizer) Pair(p1, p2 *plan.Plan) []float64 {
	return f.PairInto(p1, p2, make([]float64, 0, f.PairDim()))
}

// pairScratch pools the per-channel plan vectors PairInto works from.
type pairScratch struct{ v1, v2 []float64 }

var pairPool = sync.Pool{New: func() any { return new(pairScratch) }}

// PairInto featurizes a plan pair into out, truncating it first and
// reusing its capacity. Channel vectors live in pooled scratch, so a warm
// out buffer makes featurization allocation-free. Bit-identical to Pair.
func (f *Featurizer) PairInto(p1, p2 *plan.Plan, out []float64) []float64 {
	s := pairPool.Get().(*pairScratch)
	out = out[:0]
	for _, c := range f.Channels {
		s.v1 = PlanVectorInto(p1, c, s.v1)
		s.v2 = PlanVectorInto(p2, c, s.v2)
		out = f.appendPair(out, s.v1, s.v2)
	}
	pairPool.Put(s)
	if f.IncludeTotalCost {
		out = append(out, p1.EstTotalCost, p2.EstTotalCost)
	}
	return out
}

// appendPair appends one channel's transformed pair attributes to out.
func (f *Featurizer) appendPair(out, v1, v2 []float64) []float64 {
	switch f.Transform {
	case Concat:
		out = append(out, v1...)
		out = append(out, v2...)
	case PairDiff:
		for i := range v1 {
			out = append(out, v2[i]-v1[i])
		}
	case PairDiffRatio:
		for i := range v1 {
			out = append(out, util.SafeDiv(v2[i]-v1[i], v1[i], ratioClip))
		}
	case PairDiffNormalized:
		denom := util.Sum(v1)
		for i := range v1 {
			out = append(out, util.SafeDiv(v2[i]-v1[i], denom, ratioClip))
		}
	}
	return out
}

// PairFromVectors combines pre-computed per-channel plan vectors into a
// pair vector. This is the telemetry path of §2.3: databases ship
// featurized plans, and cross-database training recombines them without
// ever seeing raw plan trees. v1s/v2s must follow f.Channels order.
func (f *Featurizer) PairFromVectors(v1s, v2s [][]float64, estCost1, estCost2 float64) []float64 {
	out := make([]float64, 0, f.PairDim())
	for ci := range v1s {
		out = f.appendPair(out, v1s[ci], v2s[ci])
	}
	if f.IncludeTotalCost {
		out = append(out, estCost1, estCost2)
	}
	return out
}
