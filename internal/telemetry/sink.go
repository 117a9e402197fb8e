// Package telemetry is the serving plane's durable ingest partition: one
// Sink per tenant accumulates execution telemetry (§2.3's feedback stream)
// as JSON lines, rotated by size across a bounded number of segments, with
// optional pressure-driven sampling so a firehose cannot exhaust disk or
// memory. The learning loop reads a Sink through Snapshot, whose monotonic
// total doubles as a watermark: the window's last record has ordinal
// total−1, so a caller holding a total can slice exactly the records
// ingested after it — an invariant that survives rotation, restart, and
// sampling.
//
// Sampling keeps the loop unbiased: when the per-sink admission budget is
// exhausted, each record is kept with probability p and the survivors'
// Weight fields are scaled by 1/p, so weighted aggregates over the stored
// window estimate the unsampled stream. Kept/dropped counts and the
// current keep probability are exported as metrics.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"repro/internal/expdata"
	"repro/internal/obs"
	"repro/internal/util"
)

// Sink-wide metric handles (names preserved from the pre-partitioned
// server sink; see DESIGN.md §8/§14).
var (
	mRecords   = obs.C("server.telemetry.records")
	mRotations = obs.C("server.telemetry.rotations")
	mSkipped   = obs.C("server.telemetry.snapshot_skipped")
	mSegments  = obs.G("server.telemetry.segments")
	mBytes     = obs.G("server.telemetry.segment_bytes")
	mSampled   = obs.C("server.telemetry.sampled_dropped")
)

// Bounds and defaults. Segments rotate by size so a JSONL partition can
// never grow without limit: the current segment lives at <path>, rotated
// ones at <path>.1 (newest) .. <path>.N-1 (oldest), and the oldest segment
// is deleted on rotation. The retained window — what Snapshot hands the
// learning loop — is therefore at most MaxSegments × SegmentBytes.
const (
	defaultSegmentBytes = 8 << 20
	defaultMaxSegments  = 4
	// memRecordCap bounds the in-memory buffer of a path-less sink (tests,
	// ephemeral servers): the oldest records are dropped past the cap, like
	// a rotated-away segment.
	memRecordCap = 100_000
	// minKeepProb floors the sampling probability so a tenant under
	// sustained overload still feeds its learning loop a trickle instead of
	// starving it entirely.
	minKeepProb = 1.0 / 64
)

// Opts configure a Sink. The zero value is a memory-only sink with default
// bounds and no sampling.
type Opts struct {
	// Path is the current-segment location; empty keeps records in a
	// bounded in-memory buffer.
	Path string
	// SegmentBytes rotates the current segment at this size (0 = 8 MiB).
	SegmentBytes int64
	// MaxSegments bounds retained segments after rotation (0 = 4).
	MaxSegments int

	// SampleRate is the admitted ingest rate in records/second before
	// probabilistic sampling engages (0 = never sample). Bursts up to
	// SampleBurst records pass unsampled.
	SampleRate float64
	// SampleBurst is the token-bucket burst in records (0 = 4×SampleRate,
	// min 64).
	SampleBurst int
	// SampleSeed seeds the sampling RNG (deterministic keep/drop decisions
	// under a fixed seed and arrival sequence).
	SampleSeed int64

	// Label names the partition (the tenant ID) for per-partition gauges;
	// empty emits no per-partition metrics.
	Label string

	// now overrides the clock (tests); nil uses time.Now.
	now func() time.Time
}

// Sink accumulates execution telemetry for one partition. All methods are
// safe for concurrent use; lines are written whole under the sink mutex so
// concurrent appends never tear or interleave records.
type Sink struct {
	mu           sync.Mutex
	path         string
	segmentBytes int64
	maxSegments  int

	f        *os.File
	bw       *bufio.Writer
	curBytes int64

	records []expdata.PlanRecord // memory-only mode
	dropped int64                // memory-mode records discarded past the cap
	count   int64                // records stored, or found on disk at open
	closed  bool

	// Sampling state (sampler nil when Opts.SampleRate == 0).
	sampler *sampler

	mSampleRate *obs.Gauge // per-partition keep probability (1 = no sampling)
}

// Open opens (appending to) the sink described by o. Pre-existing segments
// are counted so Total stays aligned with what Snapshot returns across
// restarts.
func Open(o Opts) (*Sink, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = defaultMaxSegments
	}
	s := &Sink{path: o.Path, segmentBytes: o.SegmentBytes, maxSegments: o.MaxSegments}
	if o.SampleRate > 0 {
		burst := o.SampleBurst
		if burst <= 0 {
			burst = int(4 * o.SampleRate)
			if burst < 64 {
				burst = 64
			}
		}
		now := o.now
		if now == nil {
			now = time.Now
		}
		s.sampler = newSampler(o.SampleRate, float64(burst), o.SampleSeed, now)
	}
	if o.Label != "" {
		s.mSampleRate = obs.G("server.tenant.ingest.sample_rate." + o.Label)
		s.mSampleRate.Set(1)
	}
	if s.path == "" {
		return s, nil
	}
	for _, seg := range s.segmentPaths() {
		recs, _ := readSegment(seg)
		s.count += int64(len(recs))
	}
	if err := s.openCurrent(); err != nil {
		return nil, err
	}
	return s, nil
}

// segmentPaths lists every possible segment location, oldest first, ending
// with the current segment.
func (s *Sink) segmentPaths() []string {
	out := make([]string, 0, s.maxSegments)
	for i := s.maxSegments - 1; i >= 1; i-- {
		out = append(out, fmt.Sprintf("%s.%d", s.path, i))
	}
	return append(out, s.path)
}

// openCurrent opens the live segment for appending; callers hold s.mu (or
// run during single-threaded construction).
func (s *Sink) openCurrent() error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: opening sink %s: %w", s.path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("telemetry: stat sink %s: %w", s.path, err)
	}
	// A crash mid-write can leave a torn line without a trailing newline;
	// appending directly after it would corrupt the next record too.
	// Terminate the torn line so only the torn record is lost.
	if size := info.Size(); size > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], size-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return fmt.Errorf("telemetry: terminating torn line in %s: %w", s.path, err)
			}
		}
	}
	s.f = f
	s.bw = bufio.NewWriter(f)
	s.curBytes = info.Size()
	mBytes.Set(float64(s.curBytes))
	return nil
}

// rotate shifts <path>.i → <path>.i+1 (dropping the oldest), moves the
// current segment to <path>.1, and opens a fresh current segment. Called
// with s.mu held and the writer flushed.
func (s *Sink) rotate() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("telemetry: closing segment: %w", err)
	}
	for i := s.maxSegments - 1; i >= 2; i-- {
		from := fmt.Sprintf("%s.%d", s.path, i-1)
		to := fmt.Sprintf("%s.%d", s.path, i)
		if _, err := os.Stat(from); err == nil {
			if err := os.Rename(from, to); err != nil {
				return fmt.Errorf("telemetry: rotating segment %s: %w", from, err)
			}
		}
	}
	if s.maxSegments > 1 {
		if err := os.Rename(s.path, s.path+".1"); err != nil {
			return fmt.Errorf("telemetry: rotating segment %s: %w", s.path, err)
		}
	} else if err := os.Remove(s.path); err != nil {
		return fmt.Errorf("telemetry: truncating sink %s: %w", s.path, err)
	}
	mRotations.Inc()
	if err := s.openCurrent(); err != nil {
		return err
	}
	n := 0
	for _, seg := range s.segmentPaths() {
		if _, err := os.Stat(seg); err == nil {
			n++
		}
	}
	mSegments.Set(float64(n))
	return nil
}

// Append admits records into the sink, applying pressure sampling when
// configured and rotating the on-disk segment when it crosses the size
// threshold. Kept records have their Weight scaled by the inverse keep
// probability; the return reports how many records were stored.
func (s *Sink) Append(recs []expdata.PlanRecord) (stored int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("telemetry: sink %q is closed", s.path)
	}
	if s.sampler != nil {
		kept, p := s.sampler.thin(recs)
		if s.mSampleRate != nil {
			s.mSampleRate.Set(p)
		}
		mSampled.Add(int64(len(recs) - len(kept)))
		recs = kept
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if s.bw != nil {
		// Encode the whole batch before writing any of it: a record that
		// does not encode (a sampled Weight scaled past float64's range)
		// must reject the batch without leaving records on disk that count
		// would miss, which would break Snapshot's watermark.
		lines := make([][]byte, len(recs))
		for i := range recs {
			line, err := json.Marshal(&recs[i])
			if err != nil {
				return 0, fmt.Errorf("telemetry: appending: %w", err)
			}
			lines[i] = append(line, '\n')
		}
		for _, line := range lines {
			if _, err := s.bw.Write(line); err != nil {
				return 0, fmt.Errorf("telemetry: appending: %w", err)
			}
			s.curBytes += int64(len(line))
			if s.curBytes >= s.segmentBytes {
				if err := s.bw.Flush(); err != nil {
					return 0, fmt.Errorf("telemetry: flushing: %w", err)
				}
				if err := s.rotate(); err != nil {
					return 0, err
				}
			}
		}
		mBytes.Set(float64(s.curBytes))
	} else {
		s.records = append(s.records, recs...)
		if over := len(s.records) - memRecordCap; over > 0 {
			s.records = append(s.records[:0:0], s.records[over:]...)
			s.dropped += int64(over)
		}
	}
	s.count += int64(len(recs))
	mRecords.Add(int64(len(recs)))
	return len(recs), nil
}

// Snapshot returns the retained telemetry window (oldest first) and the
// monotonic total of records ever stored. The window's last record has
// ordinal total-1, so a caller holding a total watermark can slice exactly
// the records stored after it. Disk-backed sinks read every live segment;
// unparseable lines (a torn write from a crash) are skipped and counted.
func (s *Sink) Snapshot() ([]expdata.PlanRecord, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return append([]expdata.PlanRecord(nil), s.records...), s.count
	}
	if err := s.bw.Flush(); err != nil {
		mSkipped.Inc()
		return nil, s.count
	}
	var out []expdata.PlanRecord
	for _, seg := range s.segmentPaths() {
		recs, skipped := readSegment(seg)
		mSkipped.Add(int64(skipped))
		out = append(out, recs...)
	}
	return out, s.count
}

// readSegment decodes one JSONL segment line by line, skipping (and
// counting) lines that do not parse. A missing segment is empty; an
// unreadable one counts as one skipped line. The segment is read whole,
// so a line of any length Append wrote is read back: a segment holds at
// most SegmentBytes plus its last record.
func readSegment(path string) (recs []expdata.PlanRecord, skipped int) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0
		}
		skipped++
	}
	var d recordDecoder
	recs = make([]expdata.PlanRecord, 0, bytes.Count(data, []byte{'\n'})+1)
	for len(data) > 0 {
		n, line, _ := bufio.ScanLines(data, true)
		data = data[n:]
		if len(line) == 0 {
			continue
		}
		rec, ok := d.decode(line)
		if !ok {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, skipped
}

// Total returns the monotonic number of records stored (including records
// found on disk when the sink opened).
func (s *Sink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// SampleRate returns the most recent keep probability (1 when sampling is
// off or the sink is under its admission budget).
func (s *Sink) SampleRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sampler == nil {
		return 1
	}
	return s.sampler.lastP
}

// Flush forces buffered records to disk (no-op for memory sinks).
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return nil
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close flushes and closes the sink. Further Appends fail.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.bw == nil {
		s.records = nil
		return nil
	}
	bw, f := s.bw, s.f
	s.bw, s.f = nil, nil
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampler is a token bucket over record counts driving probabilistic
// thinning: while tokens last, everything is admitted; past them, each
// record survives with probability tokens/offered (floored at minKeepProb)
// and survivors' weights are scaled by the inverse so weighted aggregates
// stay unbiased. Callers hold the sink mutex.
type sampler struct {
	rate   float64 // tokens (records) per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
	rng    *util.RNG
	lastP  float64
}

func newSampler(rate, burst float64, seed int64, now func() time.Time) *sampler {
	return &sampler{rate: rate, burst: burst, tokens: burst, now: now,
		rng: util.NewRNG(seed).Split("telemetry-sampler"), lastP: 1}
}

// thin refills the bucket and returns the surviving records plus the keep
// probability applied to this batch.
func (sp *sampler) thin(recs []expdata.PlanRecord) ([]expdata.PlanRecord, float64) {
	t := sp.now()
	if !sp.last.IsZero() {
		sp.tokens += t.Sub(sp.last).Seconds() * sp.rate
		if sp.tokens > sp.burst {
			sp.tokens = sp.burst
		}
	}
	sp.last = t
	n := float64(len(recs))
	if n == 0 {
		sp.lastP = 1
		return recs, 1
	}
	if sp.tokens >= n {
		sp.tokens -= n
		sp.lastP = 1
		return recs, 1
	}
	p := sp.tokens / n
	if p < minKeepProb {
		p = minKeepProb
	}
	kept := recs[:0:0]
	for i := range recs {
		if sp.rng.Float64() < p {
			rec := recs[i]
			rec.Weight = rec.EffectiveWeight() / p
			kept = append(kept, rec)
		}
	}
	sp.tokens -= float64(len(kept))
	if sp.tokens < 0 {
		sp.tokens = 0
	}
	sp.lastP = p
	return kept, p
}
