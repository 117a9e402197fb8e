package expdata

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/feat"
)

// PlanRecord is the telemetry form of one executed plan (§2.3): databases
// emit featurized plans — per-channel vectors plus the estimated total
// cost — and the measured execution cost. Raw plans never leave the
// database; cross-database training happens on these records.
type PlanRecord struct {
	DB           string               `json:"db"`
	Query        string               `json:"query"`
	TemplateHash uint64               `json:"template_hash"`
	Fingerprint  uint64               `json:"fingerprint"`
	Cost         float64              `json:"cost"`
	EstTotalCost float64              `json:"est_total_cost"`
	Channels     map[string][]float64 `json:"channels"`
	// Weight is the number of real executions this record represents.
	// 0 or absent means 1. Ingest paths that thin a firehose by keeping
	// each record with probability p scale the survivors' weights by 1/p,
	// so downstream aggregates over weights stay unbiased estimates of the
	// unsampled stream.
	Weight float64 `json:"weight,omitempty"`
}

// EffectiveWeight returns the record's weight, treating the zero value
// (records written before sampling existed, or never sampled) as 1.
func (r *PlanRecord) EffectiveWeight() float64 {
	if r.Weight <= 0 {
		return 1
	}
	return r.Weight
}

// TemplateGroup returns the record's template group: the constant-stripped
// template hash when the emitting database provided one, else an FNV-1a
// hash of (db, 0x00, query). Queries that cannot be shown to share a
// template stay in separate groups, which can only make a split by
// template stricter. The learning loop's pairs and the workload
// embedding's samples are grouped by it.
func (r *PlanRecord) TemplateGroup() uint64 {
	if r.TemplateHash != 0 {
		return r.TemplateHash
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, s := range []string{r.DB, "\x00", r.Query} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	return h
}

// ToRecord featurizes one executed plan into its telemetry form.
func ToRecord(ep *ExecutedPlan, channels []feat.Channel) PlanRecord {
	rec := PlanRecord{
		DB:           ep.DB,
		Query:        ep.Query.Name,
		TemplateHash: ep.Query.TemplateHash(),
		Fingerprint:  ep.Plan.Fingerprint(),
		Cost:         ep.Cost,
		EstTotalCost: ep.Plan.EstTotalCost,
		Channels:     map[string][]float64{},
	}
	for _, c := range channels {
		rec.Channels[c.String()] = feat.PlanVector(ep.Plan, c)
	}
	return rec
}

// ExportTelemetry writes a dataset as JSON lines of PlanRecords.
func ExportTelemetry(w io.Writer, ds *Dataset, channels []feat.Channel) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ep := range ds.Plans {
		if err := enc.Encode(ToRecord(ep, channels)); err != nil {
			return fmt.Errorf("expdata: encoding telemetry: %w", err)
		}
	}
	return bw.Flush()
}

// ImportTelemetry reads JSON-lines PlanRecords.
func ImportTelemetry(r io.Reader) ([]PlanRecord, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []PlanRecord
	for dec.More() {
		var rec PlanRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("expdata: decoding telemetry record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// CheckCosts validates a record's cost fields: both the measured cost and
// the optimizer estimate must be finite and non-negative. Telemetry is a
// trust boundary (records arrive over HTTP from remote databases), so a
// NaN, infinite, or negative cost is rejected here instead of propagating
// into labels and feature vectors.
func (r *PlanRecord) CheckCosts() error {
	if math.IsNaN(r.Cost) || math.IsInf(r.Cost, 0) || r.Cost < 0 {
		return fmt.Errorf("expdata: record %s/%s: bad measured cost %v", r.DB, r.Query, r.Cost)
	}
	if math.IsNaN(r.EstTotalCost) || math.IsInf(r.EstTotalCost, 0) || r.EstTotalCost < 0 {
		return fmt.Errorf("expdata: record %s/%s: bad estimated cost %v", r.DB, r.Query, r.EstTotalCost)
	}
	if math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) || r.Weight < 0 {
		return fmt.Errorf("expdata: record %s/%s: bad weight %v", r.DB, r.Query, r.Weight)
	}
	return nil
}

// ChannelVectors extracts the named channel vectors of a record in order,
// canonicalized to dim attributes. A vector shorter than dim is zero-padded
// (operator keys a plan never used carry zero mass, so padding preserves
// featurization semantics); a vector longer than dim, a missing channel, or
// a non-finite attribute is an error. padded reports whether any vector
// needed padding.
func (r *PlanRecord) ChannelVectors(names []string, dim int) (vs [][]float64, padded bool, err error) {
	vs = make([][]float64, 0, len(names))
	for _, name := range names {
		v, ok := r.Channels[name]
		if !ok {
			return nil, false, fmt.Errorf("expdata: record %s/%s: missing channel %q", r.DB, r.Query, name)
		}
		if len(v) > dim {
			return nil, false, fmt.Errorf("expdata: record %s/%s: channel %q has %d attributes, featurization emits %d", r.DB, r.Query, name, len(v), dim)
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, false, fmt.Errorf("expdata: record %s/%s: channel %q has non-finite attribute", r.DB, r.Query, name)
			}
		}
		if len(v) < dim {
			padded = true
			pv := make([]float64, dim)
			copy(pv, v)
			v = pv
		}
		vs = append(vs, v)
	}
	return vs, padded, nil
}
