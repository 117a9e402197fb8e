package expdata

import "repro/internal/util"

// SplitMode enumerates the train/test split strategies of §7.3. From Pair
// to Database, the train and test distributions grow increasingly
// different.
type SplitMode int

// Split modes.
const (
	// SplitPair splits the union of pairs into disjoint sets.
	SplitPair SplitMode = iota
	// SplitPlan splits each query's plans into disjoint sets; pairs are
	// built within each side, so test pairs involve only unseen plans.
	SplitPlan
	// SplitQuery splits queries into disjoint sets.
	SplitQuery
	// SplitDatabase holds out entire databases (see HoldOutDatabase).
	SplitDatabase
)

var splitNames = [...]string{"pair", "plan", "query", "database"}

// String implements fmt.Stringer.
func (m SplitMode) String() string {
	if int(m) < len(splitNames) {
		return splitNames[m]
	}
	return "unknown"
}

// Split divides a corpus into train/test pairs under the given mode.
// trainFrac is the fraction of the unit being split (pairs, plans, or
// queries) assigned to training. maxPairsPerQuery caps emitted pairs.
func Split(c *Corpus, mode SplitMode, trainFrac float64, maxPairsPerQuery int, rng *util.RNG) (train, test []Pair) {
	switch mode {
	case SplitPair:
		all := c.AllPairs(maxPairsPerQuery, rng.Split("all"))
		perm := rng.Split("perm").Perm(len(all))
		nTrain := int(float64(len(all)) * trainFrac)
		for i, pi := range perm {
			if i < nTrain {
				train = append(train, all[pi])
			} else {
				test = append(test, all[pi])
			}
		}
	case SplitPlan:
		for _, ds := range c.Sets {
			srng := rng.Split("plan:" + ds.DB)
			for _, qn := range ds.QueryNames() {
				plans := ds.PlansOf(qn)
				if len(plans) < 2 {
					continue
				}
				perm := srng.Perm(len(plans))
				nTrain := int(float64(len(plans)) * trainFrac)
				// Pairs need two plans: at tiny train ratios, keep at
				// least two training plans per query when available.
				if nTrain < 2 && len(plans) >= 4 {
					nTrain = 2
				}
				var trP, teP []*ExecutedPlan
				for i, pi := range perm {
					if i < nTrain {
						trP = append(trP, plans[pi])
					} else {
						teP = append(teP, plans[pi])
					}
				}
				train = append(train, pairsAmong(trP, maxPairsPerQuery, srng)...)
				test = append(test, pairsAmong(teP, maxPairsPerQuery, srng)...)
			}
		}
	case SplitQuery:
		// Leakage guard: the same query template frequently appears under
		// several databases (the suite reuses TPC-H/TPC-DS templates across
		// scales and skews). Splitting each database independently — the
		// original implementation — could put a template's pairs in train
		// under one database and in test under another, leaking the
		// (query, config-pair) relationship across the fold boundary. Units
		// of (dataset, query) are therefore grouped by constant-stripped
		// template hash across ALL datasets, and whole groups land in one
		// fold. See TestSplitQueryNoCrossDatabaseTemplateLeak.
		type queryUnit struct {
			ds *Dataset
			qn string
		}
		groups := map[uint64][]queryUnit{}
		var order []uint64 // first-seen template order: deterministic
		nUnits := 0
		for _, ds := range c.Sets {
			for _, qn := range ds.QueryNames() {
				plans := ds.PlansOf(qn)
				if len(plans) == 0 {
					continue
				}
				th := plans[0].Query.TemplateHash()
				if _, ok := groups[th]; !ok {
					order = append(order, th)
				}
				groups[th] = append(groups[th], queryUnit{ds, qn})
				nUnits++
			}
		}
		perm := rng.Split("query").Perm(len(order))
		nTrain := int(float64(nUnits) * trainFrac)
		assigned := 0
		for _, gi := range perm {
			units := groups[order[gi]]
			toTrain := assigned < nTrain
			for _, u := range units {
				// Per-unit named RNG streams keep pair sampling independent
				// of group iteration order.
				srng := rng.Split("query:" + u.ds.DB + ":" + u.qn)
				pairs := pairsAmong(u.ds.PlansOf(u.qn), maxPairsPerQuery, srng)
				if toTrain {
					train = append(train, pairs...)
				} else {
					test = append(test, pairs...)
				}
			}
			assigned += len(units)
		}
	case SplitDatabase:
		// Hold out one random database; prefer HoldOutDatabase directly.
		if len(c.Sets) == 0 {
			return nil, nil
		}
		held := c.Sets[rng.Intn(len(c.Sets))].DB
		return HoldOutDatabase(c, held, maxPairsPerQuery, rng)
	}
	return train, test
}

// HoldOutDatabase returns train pairs from every database except held, and
// test pairs from the held-out database (§7.7).
func HoldOutDatabase(c *Corpus, held string, maxPairsPerQuery int, rng *util.RNG) (train, test []Pair) {
	for _, ds := range c.Sets {
		pairs := ds.Pairs(maxPairsPerQuery, rng.Split("ho:"+ds.DB))
		if ds.DB == held {
			test = append(test, pairs...)
		} else {
			train = append(train, pairs...)
		}
	}
	return train, test
}

// LeakPlans moves k plans per query of the held-out dataset into a "leaked"
// training set (§7.7–7.8): leaked-train pairs are built among the k leaked
// plans of each query; the remaining test pairs involve only unleaked
// plans. The returned sets are disjoint in plans.
func LeakPlans(held *Dataset, k int, maxPairsPerQuery int, rng *util.RNG) (leakTrain, test []Pair) {
	for _, qn := range held.QueryNames() {
		plans := held.PlansOf(qn)
		perm := rng.Split("leak:" + qn).Perm(len(plans))
		var leaked, rest []*ExecutedPlan
		for i, pi := range perm {
			if i < k {
				leaked = append(leaked, plans[pi])
			} else {
				rest = append(rest, plans[pi])
			}
		}
		leakTrain = append(leakTrain, pairsAmong(leaked, maxPairsPerQuery, rng)...)
		test = append(test, pairsAmong(rest, maxPairsPerQuery, rng)...)
	}
	return leakTrain, test
}

// LabelCounts tallies pair labels at threshold alpha.
func LabelCounts(pairs []Pair, alpha float64) map[Label]int {
	out := map[Label]int{}
	for _, p := range pairs {
		out[p.Label(alpha)]++
	}
	return out
}
