package registry

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/embed"
)

// TestEncoderStoreLifecycle: the workload embedding and warm-start
// provenance persist beside a served encoder, survive reopen, and peek
// back without a full Open.
func TestEncoderStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Encoders.AddAndActivate(encoderBlob(t, 1)); err != nil {
		t.Fatal(err)
	}

	we := &embed.WorkloadEmbedding{Dim: 2, Vector: []float64{0.6, 0.8}, Records: 6, Templates: 6, EncoderVersion: 1}
	if err := r.SaveWorkloadEmbedding(we); err != nil {
		t.Fatal(err)
	}
	prov := &Provenance{SeededFrom: "acme", SourceVersion: 3, SourceEncoder: 1, Similarity: 0.93, At: time.Now().UTC()}
	if err := r.SaveProvenance(prov); err != nil {
		t.Fatal(err)
	}

	// Reopen restores the encoder beside the extra files.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if act := r2.Encoders.Active(); act == nil || act.ID != 1 {
		t.Fatalf("reopened active encoder = %+v, want v1", act)
	}

	// Peek reads the same artifacts without a full Open.
	gotWE, err := PeekWorkloadEmbedding(dir)
	if err != nil || !reflect.DeepEqual(gotWE, we) {
		t.Fatalf("PeekWorkloadEmbedding = %+v, %v", gotWE, err)
	}
	gotProv, err := PeekProvenance(dir)
	if err != nil || gotProv == nil || gotProv.SeededFrom != "acme" || gotProv.SourceVersion != 3 {
		t.Fatalf("PeekProvenance = %+v, %v", gotProv, err)
	}
	if got, err := r2.LoadProvenance(); err != nil || !reflect.DeepEqual(got, gotProv) {
		t.Fatalf("LoadProvenance = %+v, %v", got, err)
	}
}

// TestPeekActiveModelMissing: peeks on an empty directory fail cleanly.
func TestPeekActiveModelMissing(t *testing.T) {
	dir := t.TempDir()
	for _, c := range storeCases {
		if _, _, err := c.peek(dir); err == nil {
			t.Fatalf("%s peek on empty dir succeeded", c.name)
		}
	}
	if p, err := PeekProvenance(dir); err != nil || p != nil {
		t.Fatalf("provenance peek on empty dir = %+v, %v, want nil, nil", p, err)
	}
}
