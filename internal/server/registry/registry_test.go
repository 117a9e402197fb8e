package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/util"
)

// testBlob builds a small valid classifier blob. Training uses synthetic
// vectors so the registry tests stay fast and self-contained.
func testBlob(t testing.TB, seed int64) []byte {
	t.Helper()
	clf := models.NewClassifier(feat.Default(), models.RF(5, seed), 0.2)
	const n, dim = 60, 6
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((i*7+j*13+int(seed))%19) / 19
		}
		X[i] = v
		y[i] = i % 3
	}
	if err := clf.TrainVectors(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := models.SaveClassifier(clf, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encoderBlob trains a tiny encoder on synthetic telemetry and serializes
// it — the fixture every encoder-store test admits.
func encoderBlob(t testing.TB, seed int64) []byte {
	t.Helper()
	var recs []expdata.PlanRecord
	for i, m := range []float64{100, 200, 400, 800, 820, 900} {
		recs = append(recs, expdata.PlanRecord{
			DB: "db", Query: fmt.Sprintf("q%d", i), Fingerprint: uint64(i + 1),
			Cost: m, EstTotalCost: m,
			Channels: map[string][]float64{
				"EstNodeCost":                   {m},
				"LeafWeightEstBytesWeightedSum": {m / 2},
			},
		})
	}
	samples := embed.RecordSamples(recs, feat.DefaultChannels())
	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = embed.PlanInput(feat.DefaultChannels(), s.Vectors, s.Est)
	}
	enc, err := embed.Train(inputs, embed.Config{Seed: seed, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := embed.SaveEncoder(enc, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// versioned is a type-erased view of one Store, so a single table drives
// the classifier and encoder instances through the same assertions.
type versioned interface {
	Activate(id int) error
	List() []Info
	Prune(keep int, pin ...int) ([]int, error)
	add(data []byte) (*Version[any], error)
	addAndActivate(data []byte) (*Version[any], error)
	serving() *Version[any]
}

func (s *Store[T]) add(data []byte) (*Version[any], error) {
	v, err := s.Add(data)
	return erase(v), err
}

func (s *Store[T]) addAndActivate(data []byte) (*Version[any], error) {
	v, err := s.AddAndActivate(data)
	return erase(v), err
}

func (s *Store[T]) serving() *Version[any] { return erase(s.Active()) }

func erase[T any](v *Version[T]) *Version[any] {
	if v == nil {
		return nil
	}
	return &Version[any]{ID: v.ID, Path: v.Path, Size: v.Size, AddedAt: v.AddedAt, Value: v.Value}
}

// storeCase is one store instance: its on-disk names, a valid-blob
// fixture, how to reach it in a Registry, how to peek its active blob, and
// whether a served value is fully loaded.
type storeCase struct {
	name, suffix, pointer string
	blob                  func(testing.TB, int64) []byte
	store                 func(*Registry) versioned
	peek                  func(dir string) (id int, blob []byte, err error)
	ready                 func(any) bool
}

var storeCases = []storeCase{
	{
		name: "models", suffix: ".clf", pointer: "CURRENT", blob: testBlob,
		store: func(r *Registry) versioned { return r.Models },
		peek: func(dir string) (int, []byte, error) {
			data, id, err := PeekActiveModel(dir)
			return id, data, err
		},
		ready: func(v any) bool {
			c, _ := v.(*models.Classifier)
			return c != nil && c.Trained()
		},
	},
	{
		name: "encoders", suffix: ".enc", pointer: "CURRENT_ENC", blob: encoderBlob,
		store: func(r *Registry) versioned { return r.Encoders },
		peek: func(dir string) (int, []byte, error) {
			enc, id, data, err := PeekActiveEncoder(dir)
			if err == nil && enc.Dim() != embed.DefaultDim {
				err = fmt.Errorf("peeked encoder has dim %d", enc.Dim())
			}
			return id, data, err
		},
		ready: func(v any) bool {
			e, _ := v.(*embed.Encoder)
			return e != nil && e.Dim() > 0
		},
	},
}

// forEachStore runs body as one subtest per store instance.
func forEachStore(t *testing.T, body func(t *testing.T, c storeCase)) {
	for _, c := range storeCases {
		t.Run(c.name, func(t *testing.T) { body(t, c) })
	}
}

func (c storeCase) blobName(id int) string { return fmt.Sprintf("v%04d%s", id, c.suffix) }

func ids(infos []Info) string {
	var out []int
	for _, info := range infos {
		out = append(out, info.ID)
	}
	return fmt.Sprint(out)
}

func TestAddActivateList(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		r, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		if s.serving() != nil {
			t.Fatal("fresh registry has an active version")
		}
		v1, err := s.add(c.blob(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if v1.ID != 1 {
			t.Fatalf("first version id = %d", v1.ID)
		}
		// Adding does not activate.
		if s.serving() != nil {
			t.Fatal("Add activated implicitly")
		}
		if err := s.Activate(1); err != nil {
			t.Fatal(err)
		}
		if got := s.serving(); got == nil || got.ID != 1 || !c.ready(got.Value) {
			t.Fatalf("active = %+v", got)
		}
		v2, err := s.addAndActivate(c.blob(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if v2.ID != 2 || s.serving().ID != 2 {
			t.Fatalf("hot swap failed: v2=%d active=%d", v2.ID, s.serving().ID)
		}
		if _, err := s.add(c.blob(t, 3)); err != nil {
			t.Fatal(err)
		}
		if s.serving().ID != 2 {
			t.Fatal("Add without Activate must not change the active version")
		}
		infos := s.List()
		if len(infos) != 3 || infos[0].Active || !infos[1].Active || infos[2].Active {
			t.Fatalf("list = %+v", infos)
		}
		if err := s.Activate(99); err == nil {
			t.Fatal("activating an unknown version succeeded")
		}
	})
}

func TestRejectsInvalidBlob(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		r, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		if _, err := s.add([]byte("garbage")); err == nil {
			t.Fatal("garbage blob accepted")
		}
		blob := c.blob(t, 3)
		if _, err := s.add(blob[:len(blob)/2]); err == nil {
			t.Fatal("truncated blob accepted")
		}
		if s.serving() != nil || len(s.List()) != 0 {
			t.Fatal("rejected blob leaked into the store")
		}
	})
}

func TestMemoryOnlyRegistry(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		r, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		v, err := s.addAndActivate(c.blob(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		if v.Path != "" {
			t.Fatalf("memory registry wrote %s", v.Path)
		}
		if s.serving().ID != v.ID {
			t.Fatal("activation failed")
		}
	})
}

// TestPersistenceAcrossReopen: add → activate → persist → reopen → peek.
func TestPersistenceAcrossReopen(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		dir := t.TempDir()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		first := c.blob(t, 5)
		if _, err := s.addAndActivate(first); err != nil {
			t.Fatal(err)
		}
		if _, err := s.add(c.blob(t, 6)); err != nil {
			t.Fatal(err)
		}
		// On-disk layout: versioned blobs, byte-for-byte as uploaded, and
		// the pointer file.
		if _, err := os.Stat(filepath.Join(dir, c.blobName(2))); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, c.blobName(1))); err != nil || !bytes.Equal(got, first) {
			t.Fatalf("%s differs from the uploaded blob (err %v)", c.blobName(1), err)
		}
		cur, err := os.ReadFile(filepath.Join(dir, c.pointer))
		if err != nil || string(cur) != "1\n" {
			t.Fatalf("%s = %q, err %v", c.pointer, cur, err)
		}

		r2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s2 := c.store(r2)
		if got := s2.serving(); got == nil || got.ID != 1 || !c.ready(got.Value) {
			t.Fatalf("reopen lost the active version: %+v", got)
		}
		if got := ids(s2.List()); got != "[1 2]" {
			t.Fatalf("reopen found versions %s, want [1 2]", got)
		}
		// Peek reads the same blob without a full Open.
		id, blob, err := c.peek(dir)
		if err != nil || id != 1 || !bytes.Equal(blob, first) {
			t.Fatalf("peek = id %d, %d bytes, err %v; want v1 as uploaded", id, len(blob), err)
		}
		// New versions continue the id sequence.
		v3, err := s2.add(c.blob(t, 7))
		if err != nil {
			t.Fatal(err)
		}
		if v3.ID != 3 {
			t.Fatalf("post-reopen id = %d, want 3", v3.ID)
		}
	})
}

// TestFailedDirSyncCountsAsWritten: when the directory sync after a
// rename fails, the new blob or pointer is already in place, so Add keeps
// the version and Activate swaps, and a reopened store agrees with the
// process that wrote it.
func TestFailedDirSyncCountsAsWritten(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	forEachStore(t, func(t *testing.T, c storeCase) {
		dir := t.TempDir()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		if _, err := s.addAndActivate(c.blob(t, 1)); err != nil {
			t.Fatal(err)
		}
		writeAtomic = func(path string, data []byte) error {
			if err := util.WriteFileAtomic(path, data); err != nil {
				return err
			}
			return fmt.Errorf("%s: %w: injected", path, util.ErrDirSync)
		}
		defer func() { writeAtomic = util.WriteFileAtomic }()
		before := mRegUnsynced.Value()
		v2, err := s.add(c.blob(t, 2))
		if err != nil {
			t.Fatalf("Add after a failed directory sync: %v", err)
		}
		if err := s.Activate(v2.ID); err != nil {
			t.Fatalf("Activate after a failed directory sync: %v", err)
		}
		if got := s.serving(); got == nil || got.ID != v2.ID {
			t.Fatalf("active = %+v, want v%d, which %s names", got, v2.ID, c.pointer)
		}
		if n := mRegUnsynced.Value() - before; n != 2 {
			t.Fatalf("server.registry.unsynced_writes rose by %d, want 2", n)
		}

		r2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.store(r2).serving(); got == nil || got.ID != v2.ID {
			t.Fatalf("reopen serves %+v, the process served v%d", got, v2.ID)
		}
		if got := ids(c.store(r2).List()); got != "[1 2]" {
			t.Fatalf("reopen found versions %s, want [1 2]", got)
		}
	})
}

func TestOpenRejectsCorruptStore(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, c.blobName(1)), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("corrupt blob did not fail Open")
		}

		for _, ptr := range []string{"7\n", "seven\n"} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, c.pointer), []byte(ptr), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); err == nil {
				t.Fatalf("%s = %q did not fail Open", c.pointer, ptr)
			}
		}
	})
}

// TestOpenSkipsNonCanonicalNames: only v%04d<suffix> names are versions. A
// stray v7 blob must not fail the store by resolving to a missing v0007,
// and a v01 alias must not load version 1 a second time.
func TestOpenSkipsNonCanonicalNames(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		dir := t.TempDir()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		blob := c.blob(t, 1)
		if _, err := c.store(r).addAndActivate(blob); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"v7" + c.suffix, "v01" + c.suffix} {
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r2, err := Open(dir)
		if err != nil {
			t.Fatalf("Open with stray blob names: %v", err)
		}
		infos := c.store(r2).List()
		if len(infos) != 1 || infos[0].ID != 1 || !infos[0].Active {
			t.Fatalf("versions = %+v, want only the active v1", infos)
		}
	})
}

// TestConcurrentReadDuringHotSwap exercises the atomic-swap contract under
// -race: readers continuously load the active version while a writer
// uploads and activates new versions; every observed value must be fully
// loaded.
func TestConcurrentReadDuringHotSwap(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		r, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		if _, err := s.addAndActivate(c.blob(t, 10)); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					v := s.serving()
					if v == nil || !c.ready(v.Value) {
						panic(fmt.Sprintf("observed half-loaded version %+v", v))
					}
				}
			}()
		}
		for i := int64(0); i < 5; i++ {
			if _, err := s.addAndActivate(c.blob(t, 20+i)); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if got := s.serving().ID; got != 6 {
			t.Fatalf("final active = %d, want 6", got)
		}
	})
}

func TestPruneRetention(t *testing.T) {
	scenarios := []struct {
		adds, active, keep int
		pin                []int
		removed, kept      string
	}{
		// keep=2 protects the newest {5,6}, the active v3, and the pinned
		// v2 (a rollback target): only v1 and v4 go.
		{adds: 6, active: 3, keep: 2, pin: []int{2}, removed: "[1 4]", kept: "[2 3 5 6]"},
		// keep=1 with the oldest version active: v1 (active) and v4
		// (newest) survive.
		{adds: 4, active: 1, keep: 1, removed: "[2 3]", kept: "[1 4]"},
	}
	forEachStore(t, func(t *testing.T, c storeCase) {
		blob := c.blob(t, 1)
		for _, sc := range scenarios {
			dir := t.TempDir()
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s := c.store(r)
			for i := 0; i < sc.adds; i++ {
				if _, err := s.add(blob); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Activate(sc.active); err != nil {
				t.Fatal(err)
			}
			removed, err := s.Prune(sc.keep, sc.pin...)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(removed) != sc.removed {
				t.Fatalf("removed = %v, want %s", removed, sc.removed)
			}
			if got := ids(s.List()); got != sc.kept {
				t.Fatalf("surviving versions = %s, want %s", got, sc.kept)
			}
			// Blobs really leave the disk; survivors really stay.
			gone := map[int]bool{}
			for _, id := range removed {
				gone[id] = true
			}
			for id := 1; id <= sc.adds; id++ {
				if _, err := os.Stat(filepath.Join(dir, c.blobName(id))); gone[id] != os.IsNotExist(err) {
					t.Fatalf("%s: pruned=%v but stat err=%v", c.blobName(id), gone[id], err)
				}
			}
			// The active version keeps serving, and pruned stores stay usable.
			if act := s.serving(); act == nil || act.ID != sc.active {
				t.Fatalf("active after prune = %v, want v%d", act, sc.active)
			}
			for _, id := range sc.pin {
				if err := s.Activate(id); err != nil {
					t.Fatalf("activating the pinned rollback target: %v", err)
				}
			}
		}
	})
}

func TestPruneKeepZeroIsNoop(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		r, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		blob := c.blob(t, 1)
		for i := 0; i < 3; i++ {
			if _, err := s.add(blob); err != nil {
				t.Fatal(err)
			}
		}
		removed, err := s.Prune(0)
		if err != nil || removed != nil {
			t.Fatalf("Prune(0) = (%v, %v), want a no-op", removed, err)
		}
		if len(s.List()) != 3 {
			t.Fatalf("versions = %d, want all 3 kept", len(s.List()))
		}
	})
}

func TestPruneMemoryOnly(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		r, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		blob := c.blob(t, 1)
		for i := 0; i < 4; i++ {
			if _, err := s.add(blob); err != nil {
				t.Fatal(err)
			}
		}
		removed, err := s.Prune(1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(removed) != "[1 2 3]" {
			t.Fatalf("removed = %v, want [1 2 3]", removed)
		}
		if got := s.List(); len(got) != 1 || got[0].ID != 4 {
			t.Fatalf("survivors = %v, want just v4", got)
		}
	})
}

// TestPruneRacesActivate runs rollbacks (Activate of each listed version
// in turn: the pinned v1, the previous newest, the newest) against a writer
// that adds and prunes to keep=1. Prune must read the active version under
// the store lock: whatever is active stays listed and on disk, and the
// pointer file never names a pruned blob.
func TestPruneRacesActivate(t *testing.T) {
	forEachStore(t, func(t *testing.T, c storeCase) {
		dir := t.TempDir()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := c.store(r)
		blob := c.blob(t, 1)
		pinned, err := s.addAndActivate(blob)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				infos := s.List()
				_ = s.Activate(infos[i%len(infos)].ID) // may lose to a prune: unknown version
			}
		}()
		for i := 0; i < 100; i++ {
			if _, err := s.add(blob); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Prune(1, pinned.ID); err != nil {
				t.Fatal(err)
			}
			// Only this goroutine prunes, so every version listed now stays
			// until the next Prune, whatever the rollback goroutine does.
			listed := map[int]bool{}
			for _, info := range s.List() {
				listed[info.ID] = true
			}
			if act := s.serving(); !listed[act.ID] {
				t.Fatalf("active v%d was pruned; listed %v", act.ID, listed)
			}
			cur, err := os.ReadFile(filepath.Join(dir, c.pointer))
			if err != nil {
				t.Fatal(err)
			}
			id, _ := strconv.Atoi(strings.TrimSpace(string(cur)))
			if _, err := os.Stat(filepath.Join(dir, c.blobName(id))); !listed[id] || err != nil {
				t.Fatalf("%s names v%d: listed=%v, stat err %v", c.pointer, id, listed[id], err)
			}
		}
		close(stop)
		wg.Wait()
		if _, err := Open(dir); err != nil {
			t.Fatalf("reopen after racing prunes: %v", err)
		}
	})
}
