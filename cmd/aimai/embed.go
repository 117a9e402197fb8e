package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/embed"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/server/registry"
)

// cmdEmbed is the one-shot workload-embedding tool: it reads telemetry
// JSONL files and prints the workload's embedding vector. With -models-dir
// pointing at a registry that has an active plan encoder, the records are
// embedded under that encoder and compared against the registry's persisted
// reference embedding (the drift view an operator gets without a running
// server); otherwise a fresh encoder is trained from the records
// themselves, which is useful for offline workload comparison.
func cmdEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	modelDir := fs.String("models-dir", "", "registry directory whose active encoder embeds the records (empty = train a fresh encoder)")
	seed := fs.Int64("seed", 1, "training seed (fixed seed = bit-identical embedding)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("embed needs at least one telemetry JSONL file")
	}
	var recs []expdata.PlanRecord
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		got, err := expdata.ImportTelemetry(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, got...)
	}
	fmt.Fprintf(os.Stderr, "loaded %d telemetry records from %d file(s)\n", len(recs), fs.NArg())

	out := struct {
		Source         string                   `json:"source"` // "registry" | "trained"
		EncoderVersion int                      `json:"encoder_version,omitempty"`
		Embedding      *embed.WorkloadEmbedding `json:"embedding"`
		Reference      *embed.WorkloadEmbedding `json:"reference,omitempty"`
		Distance       *float64                 `json:"distance,omitempty"`
	}{}

	var enc *embed.Encoder
	if *modelDir != "" {
		e, ver, _, err := registry.PeekActiveEncoder(*modelDir)
		if err != nil {
			return fmt.Errorf("no usable encoder in %s: %w", *modelDir, err)
		}
		enc, out.Source, out.EncoderVersion = e, "registry", ver
		if ref, err := registry.PeekWorkloadEmbedding(*modelDir); err == nil {
			out.Reference = ref
		}
	} else {
		samples := embed.RecordSamples(recs, feat.DefaultChannels())
		inputs := make([][]float64, len(samples))
		for i, s := range samples {
			inputs[i] = embed.PlanInput(feat.DefaultChannels(), s.Vectors, s.Est)
		}
		e, err := embed.Train(inputs, embed.Config{Seed: *seed})
		if err != nil {
			return err
		}
		enc, out.Source = e, "trained"
	}
	out.Embedding = enc.Workload(embed.RecordSamples(recs, enc.Channels()))
	if out.Embedding == nil {
		return fmt.Errorf("no valid record survived featurization")
	}
	if out.Reference != nil {
		d := embed.Distance(out.Embedding.Vector, out.Reference.Vector)
		out.Distance = &d
	}
	je := json.NewEncoder(os.Stdout)
	je.SetIndent("", "  ")
	return je.Encode(&out)
}
