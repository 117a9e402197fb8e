// Package workload builds the benchmark databases and query workloads the
// evaluation runs on: TPC-H-like and TPC-DS-like analytical schemas at two
// scale levels (with Zipf-skewed, correlated data, as the paper uses a
// skewed TPC-H generator), plus eleven synthetic "customer" workloads drawn
// from a randomized schema/query family.
//
// Fifteen databases total, matching the paper's Table 2 corpus shape. Row
// counts are scaled down so the full suite executes on a laptop; the Scale
// option rescales everything for quick tests.
package workload

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/data"
	"repro/internal/engine/query"
	"repro/internal/util"
)

// Workload bundles one database with its query set.
type Workload struct {
	Name    string
	Schema  *catalog.Schema
	DB      *data.Database
	Queries []*query.Query
}

// Validate checks every query against the schema.
func (w *Workload) Validate() error {
	for _, q := range w.Queries {
		if err := q.Validate(w.Schema); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}

// Query returns the named query, or nil.
func (w *Workload) Query(name string) *query.Query {
	for _, q := range w.Queries {
		if q.Name == name {
			return q
		}
	}
	return nil
}

// Stats is one row of the workload-statistics table (paper Table 2).
type Stats struct {
	Name     string
	SizeMB   float64
	Tables   int
	Queries  int
	AvgJoins float64
	MaxJoins int
}

// ComputeStats summarizes the workload.
func (w *Workload) ComputeStats() Stats {
	s := Stats{
		Name:    w.Name,
		SizeMB:  float64(w.Schema.TotalBytes()) / (1 << 20),
		Tables:  w.Schema.NumTables(),
		Queries: len(w.Queries),
	}
	var joins int
	for _, q := range w.Queries {
		joins += len(q.Joins)
		if len(q.Joins) > s.MaxJoins {
			s.MaxJoins = len(q.Joins)
		}
	}
	if len(w.Queries) > 0 {
		s.AvgJoins = float64(joins) / float64(len(w.Queries))
	}
	return s
}

// Opts controls suite construction.
type Opts struct {
	// Scale multiplies every base row count; 1.0 is the benchmark scale,
	// tests use much smaller values. Values <= 0 default to 1.
	Scale float64
	// Seed is the root seed for data and query parameter generation.
	Seed int64
}

func (o Opts) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func scaleRows(base int, s float64) int {
	n := int(float64(base) * s)
	if n < 20 {
		n = 20
	}
	return n
}

// Suite builds the full fifteen-database corpus: tpch10, tpch100, tpcds10,
// tpcds100, and cust1..cust11 (cust6 being the most join-heavy, like the
// paper's Customer6).
func Suite(o Opts) []*Workload {
	s := o.scale()
	seed := o.Seed
	if seed == 0 {
		seed = 20190701
	}
	ws := []*Workload{
		TPCH("tpch10", scaleRows(16000, s), seed+1),
		TPCH("tpch100", scaleRows(48000, s), seed+2),
		TPCDS("tpcds10", scaleRows(12000, s), seed+3),
		TPCDS("tpcds100", scaleRows(36000, s), seed+4),
	}
	for i := 1; i <= 11; i++ {
		complexity := 1 + (i-1)%3
		if i == 6 {
			complexity = 4 // Customer6: the most complex workload
		}
		// Customer databases span a wide size range (like real tenants):
		// the per-database feature magnitudes that result are part of the
		// cross-database distribution shift of §4.2.
		sizeSpread := 0.4 + 0.35*float64(i-1)
		ws = append(ws, Customer(fmt.Sprintf("cust%d", i), seed+100+int64(i), complexity, s*sizeSpread))
	}
	return ws
}

// intCol is shorthand for an int64 column definition.
func intCol(name string) catalog.Column {
	return catalog.Column{Name: name, Type: catalog.TypeInt}
}

func strCol(name string) catalog.Column {
	return catalog.Column{Name: name, Type: catalog.TypeString}
}

func dateCol(name string) catalog.Column {
	return catalog.Column{Name: name, Type: catalog.TypeDate}
}

// buildTable materializes a table and registers it.
func buildTable(db *data.Database, meta *catalog.Table, rng *util.RNG, rows int, specs []data.ColumnSpec) *data.Table {
	t := data.BuildTable(meta, rng, rows, specs)
	db.AddTable(t)
	return t
}
