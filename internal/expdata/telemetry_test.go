package expdata

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/feat"
)

func TestTelemetryRoundTrip(t *testing.T) {
	ds := collectSmall(t)
	var buf bytes.Buffer
	channels := feat.DefaultChannels()
	if err := ExportTelemetry(&buf, ds, channels); err != nil {
		t.Fatal(err)
	}
	recs, err := ImportTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ds.Plans) {
		t.Fatalf("record count %d != plan count %d", len(recs), len(ds.Plans))
	}
	for i, rec := range recs {
		ep := ds.Plans[i]
		if rec.DB != ep.DB || rec.Query != ep.Query.Name || rec.Cost != ep.Cost {
			t.Fatalf("record %d metadata mismatch", i)
		}
		if rec.Fingerprint != ep.Plan.Fingerprint() {
			t.Fatalf("record %d fingerprint mismatch", i)
		}
		for _, c := range channels {
			want := feat.PlanVector(ep.Plan, c)
			got := rec.Channels[c.String()]
			if len(got) != len(want) {
				t.Fatalf("record %d channel %v length", i, c)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("record %d channel %v attr %d changed", i, c, j)
				}
			}
		}
	}
}

func TestTelemetryErrors(t *testing.T) {
	if _, err := ImportTelemetry(strings.NewReader("{bad json")); err == nil {
		t.Fatal("garbage should fail")
	}
}
