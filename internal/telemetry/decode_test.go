package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/util"
	"repro/internal/workload"
)

// sameRecord reports the first difference between two records, comparing
// floats by their bits and telling nil maps and slices from empty ones.
func sameRecord(a, b *expdata.PlanRecord) string {
	switch {
	case a.DB != b.DB:
		return "DB"
	case a.Query != b.Query:
		return "Query"
	case a.TemplateHash != b.TemplateHash:
		return "TemplateHash"
	case a.Fingerprint != b.Fingerprint:
		return "Fingerprint"
	case math.Float64bits(a.Cost) != math.Float64bits(b.Cost):
		return "Cost"
	case math.Float64bits(a.EstTotalCost) != math.Float64bits(b.EstTotalCost):
		return "EstTotalCost"
	case math.Float64bits(a.Weight) != math.Float64bits(b.Weight):
		return "Weight"
	case (a.Channels == nil) != (b.Channels == nil) || len(a.Channels) != len(b.Channels):
		return "Channels"
	}
	for name, av := range a.Channels {
		bv, ok := b.Channels[name]
		if !ok || (av == nil) != (bv == nil) || len(av) != len(bv) {
			return "Channels[" + name + "]"
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return "Channels[" + name + "]"
			}
		}
	}
	return ""
}

// checkAgainstJSON fails when decode and json.Unmarshal disagree on line:
// on whether it is accepted, or on any bit of the record.
func checkAgainstJSON(t *testing.T, line []byte) {
	t.Helper()
	var d recordDecoder
	got, ok := d.decode(line)
	var want expdata.PlanRecord
	err := json.Unmarshal(line, &want)
	if ok != (err == nil) {
		t.Fatalf("decode accepted = %v, json.Unmarshal error = %v, on %q", ok, err, line)
	}
	if !ok {
		return
	}
	if diff := sameRecord(&got, &want); diff != "" {
		t.Fatalf("decode and json.Unmarshal differ in %s on %q", diff, line)
	}
}

// realLine is the line the sink writes for a featurized TPC-H plan.
func realLine(t testing.TB, weight float64) []byte {
	t.Helper()
	w := workload.TPCH("decode", 400, 5)
	ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: 1, MaxConfigsPerQuery: 2, ExecRepeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := expdata.ToRecord(ds.Plans[len(ds.Plans)/2], feat.DefaultChannels())
	rec.Weight = weight
	line, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// edgeLines are lines at the edges of the direct path's form, each with
// whether the direct path takes it. Lines it does not take go to
// json.Unmarshal, which may accept or reject them.
var edgeLines = []struct {
	line   string
	direct bool
}{
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3.5,"est_total_cost":4,"channels":{"A":[1,2],"B":[0.5]}}`, true},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3.5,"est_total_cost":4,"channels":{"A":[1,2]},"weight":64}`, true},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3.5,"est_total_cost":4,"channels":{"A":[1]},"weight":0}`, true},
	{`{"db":"","query":"","template_hash":0,"fingerprint":0,"cost":0,"est_total_cost":0,"channels":{}}`, true},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[],"B":[7,0,-0,0.0,0e0]}}`, true},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"":[1]}}`, true},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1],"A":[2,3]}}`, true},
	{`{"db":"d","query":"q","template_hash":18446744073709551615,"fingerprint":2,"cost":-0,"est_total_cost":1E+2,"channels":{"A":[1e-7,-2.5e300,0.000001,4.9e-324]}}`, true},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":1e-400,"est_total_cost":4,"channels":{"A":[1]}}`, true},
	{`{"db":"a b~!","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, true},
	// Escapes, non-ASCII, DEL and control characters in strings.
	{`{"db":"d","query":"q\u0031","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q\"","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"qé","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{"{\"db\":\"d\",\"query\":\"q\x7f\",\"template_hash\":1,\"fingerprint\":2,\"cost\":3,\"est_total_cost\":4,\"channels\":{\"A\":[1]}}", false},
	{"{\"db\":\"d\",\"query\":\"q\t\",\"template_hash\":1,\"fingerprint\":2,\"cost\":3,\"est_total_cost\":4,\"channels\":{\"A\":[1]}}", false},
	{"{\"db\":\"d\",\"query\":\"q\xff\",\"template_hash\":1,\"fingerprint\":2,\"cost\":3,\"est_total_cost\":4,\"channels\":{\"A\":[1]}}", false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A\u0042":[1]}}`, false},
	// Whitespace, trailing bytes, key order, key case, unknown and
	// repeated keys.
	{`{"db": "d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1, 2]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}} `, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}x`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}}`, false},
	{`{"query":"q","db":"d","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"DB":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]},"extra":1}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]},"weight":2,"weight":3}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]},"db":"e"}`, false},
	// null values.
	{`{"db":null,"query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":null}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":null}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[null]}}`, false},
	// Numbers outside JSON's grammar or the field's range.
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":1e400,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[-1e309]}}`, false},
	{`{"db":"d","query":"q","template_hash":18446744073709551616,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":-1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":-0,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1.0,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1e2,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":01,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":01,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":1.,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":.5,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":1e,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":+1,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":NaN,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":0x10,"est_total_cost":4,"channels":{"A":[1]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1,]}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1],}}`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]},"weight":1e999}`, false},
	// Torn lines.
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]`, false},
	{`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1]},"weight":`, false},
	{`{"db":"d","query":"torn`, false},
	{`{`, false},
	{``, false},
}

// TestDecodeEdgeLines checks which edge lines take the direct path and
// that every one decodes as json.Unmarshal decodes it.
func TestDecodeEdgeLines(t *testing.T) {
	for _, c := range edgeLines {
		var d recordDecoder
		if _, ok := d.direct([]byte(c.line)); ok != c.direct {
			t.Errorf("direct path took = %v, want %v, on %q", ok, c.direct, c.line)
		}
		checkAgainstJSON(t, []byte(c.line))
	}
	// Empty arrays and maps decode to empty non-nil values.
	var d recordDecoder
	rec, ok := d.direct([]byte(edgeLines[4].line))
	if !ok || rec.Channels["A"] == nil || len(rec.Channels["A"]) != 0 {
		t.Fatalf("[] decoded to %#v", rec.Channels["A"])
	}
	rec, ok = d.direct([]byte(edgeLines[3].line))
	if !ok || rec.Channels == nil || len(rec.Channels) != 0 {
		t.Fatalf("{} decoded to %#v", rec.Channels)
	}
}

// TestDecodeCarvedChannelsDoNotAlias: appending to one decoded channel
// must not write into another channel or the next record.
func TestDecodeCarvedChannelsDoNotAlias(t *testing.T) {
	var d recordDecoder
	line := []byte(`{"db":"d","query":"q","template_hash":1,"fingerprint":2,"cost":3,"est_total_cost":4,"channels":{"A":[1,2],"B":[3]}}`)
	rec, ok := d.direct(line)
	if !ok {
		t.Fatal("direct path rejected the sink's form")
	}
	a := append(rec.Channels["A"], 99)
	if a[0] != 1 || rec.Channels["B"][0] != 3 {
		t.Fatalf("append to channel A wrote into channel B: %v", rec.Channels)
	}
	next, _ := d.direct(line)
	_ = append(next.Channels["A"][:1], 42)
	if rec.Channels["A"][1] != 2 {
		t.Fatalf("records share channel storage: %v", rec.Channels)
	}
}

// TestDecodeFeaturizedTelemetry decodes the featurized telemetry of the
// bench's learn sources (cust9, tpch10 and tpcds10 at scale 0.25, built
// as bench/fixture.go builds them), every third record with a sampled
// Weight, from the lines the sink writes. Every line must take the direct
// path and match json.Unmarshal bit for bit.
func TestDecodeFeaturizedTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three databases")
	}
	const seed, scale = 20190701, 0.25
	ws := []*workload.Workload{
		workload.Customer("cust9", seed+109, 3, scale*(0.4+0.35*8)),
		workload.TPCH("tpch10", int(16000*scale), seed+1),
		workload.TPCDS("tpcds10", int(12000*scale), seed+3),
	}
	rng := util.NewRNG(7)
	var d recordDecoder
	for _, w := range ws {
		ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, ep := range ds.Plans {
			rec := expdata.ToRecord(ep, feat.DefaultChannels())
			if i%3 == 0 {
				rec.Weight = 1 / (minKeepProb + (1-minKeepProb)*rng.Float64())
			}
			line, err := json.Marshal(&rec)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := d.direct(line)
			if !ok {
				t.Fatalf("%s: the direct path rejected a line the sink wrote: %q", w.Name, line)
			}
			var want expdata.PlanRecord
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatal(err)
			}
			if diff := sameRecord(&got, &want); diff != "" {
				t.Fatalf("%s: direct path and json.Unmarshal differ in %s on %q", w.Name, diff, line)
			}
			if diff := sameRecord(&got, &rec); diff != "" {
				t.Fatalf("%s: record does not round-trip: %s differs", w.Name, diff)
			}
		}
		t.Logf("%s: %d records", w.Name, len(ds.Plans))
	}
}

// FuzzDecodeLine decodes arbitrary bytes through the segment reader's
// decoder and through json.Unmarshal, and fails on any difference in
// whether the line is accepted or in any bit of the record.
func FuzzDecodeLine(f *testing.F) {
	f.Add(realLine(f, 0))
	f.Add(realLine(f, 17.25))
	for _, c := range edgeLines {
		f.Add([]byte(c.line))
	}
	f.Add([]byte(strings.Repeat("[", 64)))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstJSON(t, line)
	})
}
