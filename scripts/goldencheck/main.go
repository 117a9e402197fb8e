// Command goldencheck prints a deterministic fingerprint of optimizer and
// executor behaviour: for a fixed workload and a fixed suite of index
// configurations it emits each plan's fingerprint, estimated cost, an FNV-64
// of its rendering (Plan.String, the /v1/plan body's text) and one of the
// bits of its default feature vector (the classifier's input), and the
// executor's WorkCost/MeasuredCost as exact hex floats, plus one
// TuneWorkload recommendation. Run it before and after a performance change
// and diff the output — any byte difference means plan selection or cost
// accounting drifted.
//
//	go run ./scripts/goldencheck > golden_before.txt
//	... change ...
//	go run ./scripts/goldencheck > golden_after.txt
//	diff golden_before.txt golden_after.txt
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/feat"
	"repro/internal/tuner"
	"repro/internal/util"
	"repro/internal/workload"
)

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// planHashes returns FNV-64a hashes of p's rendering and of the bits of its
// default feature vector.
func planHashes(p *plan.Plan) (str, vec uint64) {
	h := fnv.New64a()
	h.Write([]byte(p.String()))
	str = h.Sum64()
	h.Reset()
	var b [8]byte
	for _, v := range feat.Default().Plan(p) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return str, h.Sum64()
}

// configsFor derives a deterministic suite of configurations from the
// query's own shape: single-column indexes on predicate columns, a covering
// variant with included columns, a multi-table combination, and a
// columnstore.
func configsFor(q *query.Query) []*catalog.Configuration {
	out := []*catalog.Configuration{nil}
	var all []*catalog.Index
	for _, t := range q.Tables {
		var cols []string
		seen := map[string]bool{}
		for _, p := range q.Preds {
			if p.Table == t && !seen[p.Column] {
				seen[p.Column] = true
				cols = append(cols, p.Column)
			}
		}
		if len(cols) == 0 {
			continue
		}
		ix := &catalog.Index{Table: t, KeyColumns: cols[:1]}
		out = append(out, catalog.NewConfiguration(ix))
		all = append(all, ix)
		if len(cols) > 1 {
			out = append(out, catalog.NewConfiguration(&catalog.Index{Table: t, KeyColumns: cols}))
		}
		// Covering variant: include the selected/grouped columns.
		var inc []string
		for _, c := range q.Select {
			if c.Table == t && !seen[c.Column] {
				seen[c.Column] = true
				inc = append(inc, c.Column)
			}
		}
		for _, c := range q.GroupBy {
			if c.Table == t && !seen[c.Column] {
				seen[c.Column] = true
				inc = append(inc, c.Column)
			}
		}
		if len(inc) > 0 {
			out = append(out, catalog.NewConfiguration(&catalog.Index{Table: t, KeyColumns: cols[:1], IncludedColumns: inc}))
		}
	}
	if len(all) > 1 {
		out = append(out, catalog.NewConfiguration(all...))
	}
	if len(q.Tables) > 0 {
		out = append(out, catalog.NewConfiguration(&catalog.Index{Table: q.Tables[0], Kind: catalog.Columnstore}))
	}
	return out
}

func main() {
	w := workload.TPCH("golden", 6000, 3)
	st := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), 512, 32)
	o := opt.New(w.Schema, st)
	ex := exec.New(w.DB)

	for qi, q := range w.Queries {
		for ci, cfg := range configsFor(q) {
			p, err := o.Optimize(q, cfg)
			if err != nil {
				fmt.Printf("q%d c%d plan-err %v\n", qi, ci, err)
				continue
			}
			str, vec := planHashes(p)
			r, err := ex.Execute(p, util.NewRNG(int64(qi*100+ci)))
			if err != nil {
				fmt.Printf("q%d c%d fp=%d est=%s str=%d feat=%d exec-err %v\n", qi, ci, p.Fingerprint(), hexf(p.EstTotalCost), str, vec, err)
				continue
			}
			fmt.Printf("q%d c%d fp=%d est=%s str=%d feat=%d work=%s meas=%s rows=%d\n",
				qi, ci, p.Fingerprint(), hexf(p.EstTotalCost), str, vec, hexf(r.WorkCost), hexf(r.MeasuredCost), len(r.Rows))
		}
	}

	// One tuner pass over a workload prefix pins search behaviour (candidate
	// enumeration, gates, winner selection) end to end.
	wi := opt.NewWhatIf(o)
	tn := tuner.New(w.Schema, wi, nil, tuner.Options{MaxNewIndexes: 3})
	rec, err := tn.TuneWorkload(context.Background(), w.Queries[:8], nil)
	if err != nil {
		fmt.Printf("tune err %v\n", err)
		return
	}
	fmt.Printf("tune est=%s\n", hexf(rec.EstCost))
	for _, ix := range rec.NewIndexes {
		fmt.Printf("tune ix %s\n", ix.ID())
	}
}
