package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/expdata"
	"repro/internal/learn"
	"repro/internal/server/registry"
)

// cmdLearn runs one offline learning cycle over telemetry JSONL files: the
// same compaction → training → shadow evaluation → guarded promotion
// pipeline the serve daemon runs continuously, under the daemon's learn
// settings, pointed at a model registry directory on disk. With -dry-run
// the registry is never written — the command just reports what a cycle
// would decide.
func cmdLearn(args []string) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	modelDir := fs.String("models-dir", "", "versioned model registry directory (empty = in-memory, promotion is ephemeral)")
	registryKeep := fs.Int("registry-keep", 0, "prune the registry to the newest N versions plus active+predecessor (0 = keep all)")
	seed := fs.Int64("seed", 1, "cycle seed (split + forest)")
	trainParallel := fs.Int("train-parallel", 0, "forest-training workers (0 = GOMAXPROCS, 1 = serial; same model at any setting)")
	driftMode := fs.String("drift-mode", "", "drift detector: z (default), embed, or both (non-z modes train a plan encoder at promotion)")
	dryRun := fs.Bool("dry-run", false, "evaluate a challenger but never write the registry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("learn needs at least one telemetry JSONL file")
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

	reg, err := registry.Open(*modelDir)
	if err != nil {
		return err
	}
	source := func() ([]expdata.PlanRecord, int64) { return recs, int64(len(recs)) }
	loop := learn.NewLoop(reg, source, *registryKeep, learn.Options{
		Seed:             *seed,
		TrainParallelism: *trainParallel,
		DriftMode:        *driftMode,
		DryRun:           *dryRun,
	})
	defer loop.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	rep, err := loop.RunCycle(ctx, "cli")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if rep.Decision == learn.DecisionPromoted && *modelDir != "" {
		fmt.Fprintf(os.Stderr, "promoted challenger as v%04d in %s\n", rep.ChallengerVersion, *modelDir)
	}
	return nil
}
