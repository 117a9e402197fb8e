package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/embed"
	"repro/internal/util"
)

// SaveWorkloadEmbedding persists the reference workload embedding
// (atomically; no-op for memory-only registries). The learning loop writes
// it at every promotion so sibling tenants can compare workloads without
// materializing this one.
func (r *Registry) SaveWorkloadEmbedding(we *embed.WorkloadEmbedding) error {
	if r.dir == "" || we == nil {
		return nil
	}
	data, err := json.Marshal(we)
	if err != nil {
		return fmt.Errorf("registry: encoding workload embedding: %w", err)
	}
	if err := util.WriteFileAtomic(filepath.Join(r.dir, "workload.emb"), data); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// Provenance records where a warm-started tenant's first champion came
// from — written once at seeding, never overwritten by later promotions.
type Provenance struct {
	// SeededFrom is the source tenant id ("default" for the default
	// tenant's registry).
	SeededFrom string `json:"seeded_from"`
	// SourceVersion is the source registry's classifier version that was
	// copied; SourceEncoder the encoder version that scored the match.
	SourceVersion int `json:"source_version"`
	SourceEncoder int `json:"source_encoder,omitempty"`
	// Similarity is the cosine similarity between the two workload
	// embeddings at seeding time.
	Similarity float64   `json:"similarity"`
	At         time.Time `json:"at"`
}

// SaveProvenance persists warm-start provenance next to the registry blobs.
func (r *Registry) SaveProvenance(p *Provenance) error {
	if r.dir == "" || p == nil {
		return nil
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encoding provenance: %w", err)
	}
	if err := util.WriteFileAtomic(filepath.Join(r.dir, "provenance.json"), data); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// LoadProvenance reads warm-start provenance; (nil, nil) when none exists.
func (r *Registry) LoadProvenance() (*Provenance, error) {
	if r.dir == "" {
		return nil, nil
	}
	return PeekProvenance(r.dir)
}

// The Peek helpers below read one artifact from a registry directory
// without opening (and validating) the whole store — the cross-tenant
// warm-start scan touches every sibling tenant and must stay cheap and
// isolated: a corrupt candidate is skipped, not fatal.

// PeekWorkloadEmbedding reads a directory's persisted workload embedding.
func PeekWorkloadEmbedding(dir string) (*embed.WorkloadEmbedding, error) {
	data, err := os.ReadFile(filepath.Join(dir, "workload.emb"))
	if err != nil {
		return nil, err
	}
	var we embed.WorkloadEmbedding
	if err := json.Unmarshal(data, &we); err != nil {
		return nil, fmt.Errorf("registry: corrupt workload embedding in %s: %w", dir, err)
	}
	if we.Dim <= 0 || len(we.Vector) != we.Dim {
		return nil, fmt.Errorf("registry: workload embedding in %s has inconsistent dims", dir)
	}
	return &we, nil
}

// PeekActiveEncoder reads and validates a directory's CURRENT_ENC encoder,
// returning the encoder, its version id, and the raw blob (ready for
// Encoders.AddAndActivate in another registry).
func PeekActiveEncoder(dir string) (*embed.Encoder, int, []byte, error) {
	return encoderKind.peek(dir)
}

// PeekActiveModel reads a directory's CURRENT classifier blob, validating
// it before returning the raw bytes (ready for Models.AddAndActivate
// elsewhere) and the version id it had in its home registry.
func PeekActiveModel(dir string) ([]byte, int, error) {
	_, id, data, err := modelKind.peek(dir)
	return data, id, err
}

// PeekProvenance reads a directory's warm-start provenance; (nil, nil) when
// none was written.
func PeekProvenance(dir string) (*Provenance, error) {
	data, err := os.ReadFile(filepath.Join(dir, "provenance.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var p Provenance
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("registry: corrupt provenance in %s: %w", dir, err)
	}
	return &p, nil
}
