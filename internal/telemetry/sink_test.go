package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expdata"
)

// telRec builds a small telemetry record whose Query encodes n, so tests
// can verify ordering across segments.
func telRec(n int) expdata.PlanRecord {
	return expdata.PlanRecord{
		DB:           "db",
		Query:        fmt.Sprintf("q%04d", n),
		Fingerprint:  uint64(n + 1),
		Cost:         float64(n),
		EstTotalCost: float64(n),
		Channels:     map[string][]float64{"EstNodeCost": {float64(n)}},
	}
}

func appendOne(t *testing.T, s *Sink, rec expdata.PlanRecord) {
	t.Helper()
	if _, err := s.Append([]expdata.PlanRecord{rec}); err != nil {
		t.Fatal(err)
	}
}

func TestTelemetryRotationAndCrossSegmentSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	// ~150 bytes per record: a 1KiB segment holds a handful, so 40 records
	// force several rotations.
	sink, err := Open(Opts{Path: path, SegmentBytes: 1024, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		appendOne(t, sink, telRec(i))
	}
	if sink.Total() != n {
		t.Fatalf("total = %d, want %d", sink.Total(), n)
	}
	recs, total := sink.Snapshot()
	if total != n {
		t.Fatalf("snapshot total = %d, want %d", total, n)
	}
	// Rotation drops the oldest segments, so the window is a strict suffix
	// of the ingest stream: the last record must be the newest, order must
	// be preserved, and the watermark arithmetic (last record has ordinal
	// total−1) must hold.
	if len(recs) == 0 || len(recs) == n {
		t.Fatalf("window = %d records, want a proper suffix of %d (rotation must have dropped some)", len(recs), n)
	}
	for i, r := range recs {
		want := fmt.Sprintf("q%04d", n-len(recs)+i)
		if r.Query != want {
			t.Fatalf("window[%d] = %s, want %s (suffix alignment broken)", i, r.Query, want)
		}
	}
	// The rotated segment files exist and respect the bound.
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated segment missing: %v", err)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Fatalf("segment beyond the retention bound exists (err=%v)", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTelemetryRestartKeepsWatermarkAlignment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	sink, err := Open(Opts{Path: path, SegmentBytes: 1024, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendOne(t, sink, telRec(i))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: records found on disk count into the total, so a watermark
	// taken before the restart still slices correctly after it.
	sink2, err := Open(Opts{Path: path, SegmentBytes: 1024, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	if sink2.Total() != 10 {
		t.Fatalf("total after reopen = %d, want 10", sink2.Total())
	}
	appendOne(t, sink2, telRec(10))
	recs, total := sink2.Snapshot()
	if total != 11 {
		t.Fatalf("total = %d, want 11", total)
	}
	if last := recs[len(recs)-1].Query; last != "q0010" {
		t.Fatalf("last record = %s, want q0010", last)
	}
}

func TestTelemetrySnapshotSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	sink, err := Open(Opts{Path: path, SegmentBytes: 1 << 20, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, sink, telRec(0))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a torn, unparseable trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"db":"db","query":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sink2, err := Open(Opts{Path: path, SegmentBytes: 1 << 20, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	recs, _ := sink2.Snapshot()
	if len(recs) != 1 || recs[0].Query != "q0000" {
		t.Fatalf("snapshot = %d records (%v), want just the intact one", len(recs), recs)
	}
	// The torn line must have been terminated on reopen: a record appended
	// after the crash stays parseable instead of merging into the torn one.
	appendOne(t, sink2, telRec(1))
	recs, _ = sink2.Snapshot()
	if len(recs) != 2 || recs[1].Query != "q0001" {
		t.Fatalf("post-crash append = %d records (%v), want the new record intact", len(recs), recs)
	}
}

func TestTelemetryMemoryMode(t *testing.T) {
	sink, err := Open(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	for i := 0; i < 5; i++ {
		appendOne(t, sink, telRec(i))
	}
	recs, total := sink.Snapshot()
	if len(recs) != 5 || total != 5 {
		t.Fatalf("memory snapshot = (%d records, total %d), want (5, 5)", len(recs), total)
	}
	// Snapshot is a copy: mutating it must not corrupt the sink.
	recs[0].Query = "mutated"
	again, _ := sink.Snapshot()
	if again[0].Query != "q0000" {
		t.Fatal("snapshot aliases the sink's backing slice")
	}
}

// TestTelemetrySamplingUnderPressure drives a sink past its admission
// budget with a frozen clock and checks the sampling contract: the burst
// passes whole, overflow is thinned with a recorded keep probability, and
// survivors carry inverse-probability weights so the weighted total stays
// an unbiased estimate of the offered stream.
func TestTelemetrySamplingUnderPressure(t *testing.T) {
	now := time.Unix(1000, 0)
	sink, err := Open(Opts{
		SampleRate: 10, SampleBurst: 100, SampleSeed: 7,
		now: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// First batch fits the burst: everything admitted, rate 1.
	batch := make([]expdata.PlanRecord, 100)
	for i := range batch {
		batch[i] = telRec(i)
	}
	stored, err := sink.Append(batch)
	if err != nil || stored != 100 {
		t.Fatalf("burst append stored %d (err %v), want 100", stored, err)
	}
	if r := sink.SampleRate(); r != 1 {
		t.Fatalf("sample rate after burst = %v, want 1", r)
	}

	// Second batch at the same instant: no tokens left, so sampling floors
	// at minKeepProb and nearly everything is dropped — bounded ingest.
	for i := range batch {
		batch[i] = telRec(100 + i)
	}
	stored, err = sink.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stored >= 50 {
		t.Fatalf("pressure append stored %d of 100, want heavy thinning", stored)
	}
	p := sink.SampleRate()
	if p <= 0 || p >= 1 {
		t.Fatalf("recorded keep probability = %v, want in (0,1)", p)
	}
	recs, total := sink.Snapshot()
	if int(total) != 100+stored || len(recs) != 100+stored {
		t.Fatalf("total = %d window = %d, want %d (watermark counts stored records only)",
			total, len(recs), 100+stored)
	}
	if offered := 2 * len(batch); int(total) > offered {
		t.Fatalf("total = %d exceeds the %d records offered", total, offered)
	}
	// Survivors of the thinned batch carry weight 1/p; the burst's records
	// carry implicit weight 1.
	for _, r := range recs[:100] {
		if r.Weight != 0 {
			t.Fatalf("unsampled record has explicit weight %v", r.Weight)
		}
	}
	for _, r := range recs[100:] {
		if r.EffectiveWeight() < 1/p-1e-9 || r.EffectiveWeight() > 1/p+1e-9 {
			t.Fatalf("sampled record weight = %v, want 1/p = %v", r.EffectiveWeight(), 1/p)
		}
	}

	// After the clock advances, the bucket refills and sampling disengages.
	now = now.Add(20 * time.Second)
	stored, err = sink.Append([]expdata.PlanRecord{telRec(999)})
	if err != nil || stored != 1 {
		t.Fatalf("post-refill append stored %d (err %v), want 1", stored, err)
	}
	if r := sink.SampleRate(); r != 1 {
		t.Fatalf("sample rate after refill = %v, want 1", r)
	}
}

// TestTelemetryFirehoseConcurrent hammers two partitioned sinks from many
// goroutines with tiny segments and sampling enabled, then proves the
// firehose guarantees: bounded on-disk footprint, no torn or interleaved
// lines in any segment, per-partition isolation (every line belongs to its
// own tenant), and intact watermark accounting. Run under -race in CI.
func TestTelemetryFirehoseConcurrent(t *testing.T) {
	dir := t.TempDir()
	open := func(label string) *Sink {
		s, err := Open(Opts{
			Path:         filepath.Join(dir, label+".jsonl"),
			SegmentBytes: 2048,
			MaxSegments:  3,
			SampleRate:   500,
			SampleBurst:  200,
			SampleSeed:   11,
			Label:        label,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sinks := map[string]*Sink{"alpha": open("alpha"), "beta": open("beta")}
	stored := map[string]*atomic.Int64{"alpha": {}, "beta": {}}

	var wg sync.WaitGroup
	const writers, batches, batchLen = 4, 50, 8
	for label, s := range sinks {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(label string, s *Sink, w int) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					recs := make([]expdata.PlanRecord, batchLen)
					for i := range recs {
						recs[i] = telRec(w*10000 + b*100 + i)
						recs[i].DB = label
					}
					n, err := s.Append(recs)
					if err != nil {
						t.Error(err)
						return
					}
					stored[label].Add(int64(n))
				}
			}(label, s, w)
		}
	}
	wg.Wait()

	for label, s := range sinks {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		offered := int64(writers * batches * batchLen)
		if s.Total() != stored[label].Load() || s.Total() > offered {
			t.Fatalf("%s total = %d, want the %d records Append stored, at most the %d offered",
				label, s.Total(), stored[label].Load(), offered)
		}
		// Bounded footprint: at most MaxSegments segments, each within one
		// record's overshoot of the rotation threshold.
		var onDisk int64
		segs := 0
		for _, seg := range s.segmentPaths() {
			info, err := os.Stat(seg)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			segs++
			onDisk += info.Size()
			if info.Size() > 2048+1024 {
				t.Fatalf("%s segment %s is %d bytes, exceeds bound", label, seg, info.Size())
			}
		}
		if segs > 3 {
			t.Fatalf("%s has %d segments, bound is 3", label, segs)
		}
		// Every line in every segment parses whole (no torn or interleaved
		// writes) and belongs to this partition (no cross-tenant leakage).
		for _, seg := range s.segmentPaths() {
			f, err := os.Open(seg)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var rec expdata.PlanRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					t.Fatalf("%s: torn/interleaved line %q: %v", seg, sc.Text(), err)
				}
				if rec.DB != label {
					t.Fatalf("%s: record for tenant %q leaked into partition %q", seg, rec.DB, label)
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTelemetryAppendAfterClose fails loudly instead of writing to a
// closed file — the eviction path depends on this being safe.
func TestTelemetryAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	sink, err := Open(Opts{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, sink, telRec(0))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Append([]expdata.PlanRecord{telRec(1)}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestTelemetryRejectedBatchLeavesNothing: a batch that fails to encode
// lands whole or not at all. Sampling scales a kept record's Weight by 1/p,
// so a posted Weight of 1e308 becomes +Inf, which JSON cannot encode.
// Records ahead of it in the batch must not reach the segment, or the
// window would outgrow Total and break the watermark rule.
func TestTelemetryRejectedBatchLeavesNothing(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		path := filepath.Join(t.TempDir(), "telemetry.jsonl")
		now := time.Unix(1000, 0)
		opts := Opts{
			Path: path, SampleRate: 10, SampleBurst: 100, SampleSeed: seed,
			now: func() time.Time { return now },
		}
		sink, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		burst := make([]expdata.PlanRecord, 100)
		for i := range burst {
			burst[i] = telRec(i)
		}
		if stored, err := sink.Append(burst); err != nil || stored != 100 {
			t.Fatalf("seed %d: burst stored %d (err %v), want 100", seed, stored, err)
		}
		// No tokens left at the frozen instant: the batch is thinned at
		// minKeepProb, so every kept record's Weight is scaled by 64.
		batch := make([]expdata.PlanRecord, 400)
		for i := range batch {
			batch[i] = telRec(100 + i)
			if i >= 300 {
				batch[i].Weight = 1e308
			}
		}
		if _, err := sink.Append(batch); err == nil {
			t.Fatalf("seed %d: a batch with an unencodable weight was accepted", seed)
		}
		if recs, total := sink.Snapshot(); int64(len(recs)) != total || total != 100 {
			t.Fatalf("seed %d: window %d records, Total %d, want 100 and 100", seed, len(recs), total)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if recs, total := reopened.Snapshot(); int64(len(recs)) != total || total != 100 {
			t.Fatalf("seed %d: after reopen window %d records, Total %d, want 100 and 100", seed, len(recs), total)
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTelemetryOversizedLineReadsBack: Append stores a record of any size
// (ingest admits bodies up to 64 MiB), so every line it writes must read
// back. A line the reader gave up on would leave the window shorter than
// Total, and Total would fall across a reopen, which counts lines on disk.
func TestTelemetryOversizedLineReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	sink, err := Open(Opts{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, sink, telRec(0))
	appendOne(t, sink, telRec(1))
	big := telRec(3)
	big.Query = strings.Repeat("x", 17<<20)
	if _, err := sink.Append([]expdata.PlanRecord{telRec(2), big}); err != nil {
		t.Fatal(err)
	}
	appendOne(t, sink, telRec(4))
	recs, total := sink.Snapshot()
	if int64(len(recs)) != total || total != 5 {
		t.Fatalf("window %d records, Total %d, want 5 and 5", len(recs), total)
	}
	if recs[3].Query != big.Query || recs[4].Query != "q0004" {
		t.Fatal("the oversized record or the one after it did not read back in place")
	}
	recs = nil
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(Opts{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recs, total = reopened.Snapshot()
	if int64(len(recs)) != total || total != 5 {
		t.Fatalf("after reopen window %d records, Total %d, want 5 and 5", len(recs), total)
	}
}

// TestReadSegmentLineEndings: segment lines end as bufio.ScanLines ends
// them. A '\r' before the newline belongs to the line ending, so a line
// holding only "\r" is empty and neither read nor counted, and a last
// line without a newline still reads.
func TestReadSegmentLineEndings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	var lines []string
	for i := 0; i < 2; i++ {
		line, err := json.Marshal(telRec(i))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	if err := os.WriteFile(path, []byte(lines[0]+"\r\n\r\n\n"+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped := readSegment(path)
	if len(recs) != 2 || skipped != 0 || recs[0].Query != "q0000" || recs[1].Query != "q0001" {
		t.Fatalf("read %d records (%v), %d skipped; want q0000 and q0001, none skipped", len(recs), recs, skipped)
	}
}
