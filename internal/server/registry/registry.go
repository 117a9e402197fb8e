// Package registry is the tuning service's versioned artifact store. One
// generic Store holds validated blobs under monotonically increasing version
// numbers, persists them to a directory (when one is configured), and
// activates a version with an atomic hot-swap so concurrent readers never
// observe a half-loaded artifact. A Registry is two instances of it sharing
// one directory: Models (classifiers, admitted through
// models.LoadClassifier) and Encoders (plan encoders, admitted through
// embed.LoadEncoder). The instances differ only in blob suffix, pointer
// file, and validator.
//
// On-disk layout:
//
//	<dir>/v0001.clf        classifier blob (models.SaveClassifier format)
//	<dir>/v0002.clf
//	<dir>/CURRENT          the active classifier version in ASCII, e.g. "2\n"
//	<dir>/v0001.enc        encoder blob (embed.SaveEncoder format)
//	<dir>/CURRENT_ENC      the active encoder version in ASCII
//	<dir>/workload.emb     the reference workload embedding (JSON)
//	<dir>/provenance.json  warm-start provenance, written once when a tenant
//	                       is seeded from another tenant's champion
//
// The default tenant's learn loop also spills learn_state.json into this
// directory (internal/learn writes it; Open ignores it). Every file is
// written through util.WriteFileAtomic (temp file + rename in the same
// directory), so a crash mid-write never leaves a torn blob or pointer.
// Reopening a
// directory restores every version and both pointers, so a restarted server
// resumes serving the same classifier and encoder. Only canonical blob names
// (v%04d plus the suffix) are versions; anything else in the directory is
// ignored.
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embed"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/util"
)

// Registry metric handles: classifier-store occupancy (versions and bytes)
// and the retention policy's activity (see DESIGN.md §11), which the
// encoder store does not publish, and the writes of either store whose
// directory sync failed (writeFile).
var (
	mRegVersions = obs.G("server.registry.versions")
	mRegBytes    = obs.G("server.registry.store_bytes")
	mRegPruned   = obs.C("server.registry.pruned")
	mRegUnsynced = obs.C("server.registry.unsynced_writes")
)

// kind is what tells the two store instances apart.
type kind[T any] struct {
	suffix  string                     // blob file suffix, as in v0001.clf
	pointer string                     // file holding the active version id
	noun    string                     // "model" or "encoder" in error texts
	tag     string                     // prefix of version ids in error texts
	decode  func(io.Reader) (T, error) // validator every blob is admitted through
	metered bool                       // publish the server.registry.* metrics
}

var (
	modelKind = kind[*models.Classifier]{
		suffix: ".clf", pointer: "CURRENT", noun: "model", metered: true,
		decode: models.LoadClassifier,
	}
	encoderKind = kind[*embed.Encoder]{
		suffix: ".enc", pointer: "CURRENT_ENC", noun: "encoder", tag: "encoder ",
		decode: embed.LoadEncoder,
	}
)

// Version is one immutable store entry: a validated artifact and its
// provenance.
type Version[T any] struct {
	// ID is the 1-based version number (v0001.clf has ID 1).
	ID int
	// Path is the blob location, empty for memory-only registries.
	Path string
	// Size is the blob size in bytes.
	Size int64
	// AddedAt is the upload (or load-from-disk) time.
	AddedAt time.Time
	// Value is the deserialized, ready-to-serve artifact.
	Value T
}

// Info is the JSON-friendly view of a Version (without the artifact itself).
type Info struct {
	ID      int       `json:"id"`
	Size    int64     `json:"size"`
	AddedAt time.Time `json:"added_at"`
	Active  bool      `json:"active"`
}

// Store is a concurrency-safe versioned artifact store. Reads of the active
// version (the inference hot path) are a single atomic pointer load;
// uploads, activations and prunes serialize on a mutex.
type Store[T any] struct {
	kind[T]
	dir string

	mu       sync.Mutex
	versions []*Version[T]
	active   atomic.Pointer[Version[T]]
}

// Registry is one directory's classifier and encoder stores plus the
// workload-embedding and provenance files written beside them.
type Registry struct {
	Models   *Store[*models.Classifier]
	Encoders *Store[*embed.Encoder]
	dir      string
}

// Open opens (creating if needed) a registry rooted at dir. An empty dir
// yields a memory-only registry: versions live for the process lifetime and
// nothing is persisted. With a directory, existing versions are loaded and
// both pointers re-activated; a corrupt blob fails Open rather than
// silently serving a partial store.
func Open(dir string) (*Registry, error) {
	r := &Registry{
		Models:   &Store[*models.Classifier]{kind: modelKind, dir: dir},
		Encoders: &Store[*embed.Encoder]{kind: encoderKind, dir: dir},
		dir:      dir,
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("registry: reading %s: %w", dir, err)
		}
		if err := r.Models.load(entries); err != nil {
			return nil, err
		}
		if err := r.Encoders.load(entries); err != nil {
			return nil, err
		}
		r.Models.publish()
	}
	return r, nil
}

func (k *kind[T]) blobName(id int) string {
	return fmt.Sprintf("v%04d%s", id, k.suffix)
}

// load restores the store's versions and its pointer during Open
// (single-threaded; no locking).
func (s *Store[T]) load(entries []os.DirEntry) error {
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, s.suffix) {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "v"), s.suffix))
		// Only the canonical spelling is a version: v7.clf or v01.clf would
		// otherwise alias v0007.clf or v0001.clf.
		if err != nil || id <= 0 || name != s.blobName(id) {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		path := filepath.Join(s.dir, s.blobName(id))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("registry: reading %s: %w", path, err)
		}
		val, err := s.decode(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("registry: loading %s: %w", path, err)
		}
		added := time.Now()
		if info, err := os.Stat(path); err == nil {
			added = info.ModTime()
		}
		s.versions = append(s.versions, &Version[T]{
			ID: id, Path: path, Size: int64(len(data)), AddedAt: added, Value: val,
		})
	}
	cur, err := os.ReadFile(filepath.Join(s.dir, s.pointer))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("registry: reading %s: %w", s.pointer, err)
	}
	id, err := strconv.Atoi(strings.TrimSpace(string(cur)))
	if err != nil {
		return fmt.Errorf("registry: corrupt %s file: %q", s.pointer, cur)
	}
	v := s.find(id)
	if v == nil {
		return fmt.Errorf("registry: %s points at missing %sversion %d", s.pointer, s.tag, id)
	}
	s.active.Store(v)
	return nil
}

// publish updates the occupancy gauges of a metered store; callers hold
// s.mu (or run during single-threaded Open).
func (s *Store[T]) publish() {
	if !s.metered {
		return
	}
	var bytes int64
	for _, v := range s.versions {
		bytes += v.Size
	}
	mRegVersions.Set(float64(len(s.versions)))
	mRegBytes.Set(float64(bytes))
}

// find returns the version with the given id; callers hold s.mu or run
// during single-threaded Open.
func (s *Store[T]) find(id int) *Version[T] {
	for _, v := range s.versions {
		if v.ID == id {
			return v
		}
	}
	return nil
}

// writeAtomic is the store's write path; tests replace it to fail the
// directory sync.
var writeAtomic = util.WriteFileAtomic

// writeFile writes a blob or pointer for Add and Activate. A directory
// sync that fails after the rename leaves the new contents in place, so
// the write counts as done and the caller updates memory to match the
// directory: failing it instead would let the process keep serving a
// version the directory, and so the next Open, no longer names. Such
// writes are counted in server.registry.unsynced_writes, not returned.
func writeFile(path string, data []byte) error {
	err := writeAtomic(path, data)
	if errors.Is(err, util.ErrDirSync) {
		mRegUnsynced.Inc()
		return nil
	}
	return err
}

// Add validates a blob and stores it as the next version, without
// activating it. The blob must round-trip through the store's validator;
// anything else is rejected.
func (s *Store[T]) Add(data []byte) (*Version[T], error) {
	val, err := s.decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("registry: invalid %s: %w", s.noun, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := 1
	if n := len(s.versions); n > 0 {
		id = s.versions[n-1].ID + 1
	}
	v := &Version[T]{ID: id, Size: int64(len(data)), AddedAt: time.Now(), Value: val}
	if s.dir != "" {
		path := filepath.Join(s.dir, s.blobName(id))
		if err := writeFile(path, data); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		v.Path = path
	}
	s.versions = append(s.versions, v)
	s.publish()
	return v, nil
}

// Prune enforces the retention policy: the newest keep versions survive,
// plus the active version and any pinned ids (the learning loop pins the
// rollback target), whatever their age. Everything else is dropped from
// memory and, for persistent registries, deleted from disk. keep <= 0 keeps
// everything. Returns the removed version ids in ascending order.
//
// The active version is read under the store mutex, so a concurrent
// Activate of an old version can never have its blob pruned. A blob whose
// deletion fails stays in the store (and in the returned error) rather than
// leaving memory and disk disagreeing.
func (s *Store[T]) Prune(keep int, pin ...int) ([]int, error) {
	if keep <= 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	protected := map[int]bool{}
	if act := s.active.Load(); act != nil {
		protected[act.ID] = true
	}
	for _, id := range pin {
		protected[id] = true
	}
	for i := max(len(s.versions)-keep, 0); i < len(s.versions); i++ {
		protected[s.versions[i].ID] = true
	}
	var removed []int
	var kept []*Version[T]
	var firstErr error
	for _, v := range s.versions {
		if protected[v.ID] {
			kept = append(kept, v)
			continue
		}
		if v.Path != "" {
			if err := os.Remove(v.Path); err != nil && !os.IsNotExist(err) {
				if firstErr == nil {
					firstErr = fmt.Errorf("registry: pruning %sv%04d: %w", s.tag, v.ID, err)
				}
				kept = append(kept, v)
				continue
			}
		}
		removed = append(removed, v.ID)
	}
	s.versions = kept
	if s.metered {
		mRegPruned.Add(int64(len(removed)))
	}
	s.publish()
	return removed, firstErr
}

// Activate makes version id the serving one. The swap is atomic: readers
// see either the previous fully-loaded version or the new one, never a
// partial state. With a directory, the pointer file is durably updated
// (temp file + rename) before the in-memory swap; when only the directory
// sync fails, the pointer already names id and the swap happens too
// (writeFile).
func (s *Store[T]) Activate(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.find(id)
	if v == nil {
		return fmt.Errorf("registry: unknown %sversion %d", s.tag, id)
	}
	if s.dir != "" {
		if err := writeFile(filepath.Join(s.dir, s.pointer), []byte(fmt.Sprintf("%d\n", id))); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
	}
	s.active.Store(v)
	return nil
}

// AddAndActivate stores a blob and immediately makes it the serving version.
func (s *Store[T]) AddAndActivate(data []byte) (*Version[T], error) {
	v, err := s.Add(data)
	if err != nil {
		return nil, err
	}
	if err := s.Activate(v.ID); err != nil {
		return nil, err
	}
	return v, nil
}

// Active returns the serving version, or nil when none is activated. This
// is the inference hot path: one atomic load, no locks.
func (s *Store[T]) Active() *Version[T] {
	return s.active.Load()
}

// List returns the stored versions in id order, flagging the active one.
func (s *Store[T]) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	act := s.active.Load()
	out := make([]Info, 0, len(s.versions))
	for _, v := range s.versions {
		out = append(out, Info{
			ID: v.ID, Size: v.Size, AddedAt: v.AddedAt,
			Active: act != nil && act.ID == v.ID,
		})
	}
	return out
}

// peek reads and validates the active blob of a registry directory without
// opening (and validating) the whole store, returning the artifact, its
// version id in its home registry, and the raw blob (ready for
// AddAndActivate elsewhere).
func (k *kind[T]) peek(dir string) (T, int, []byte, error) {
	var zero T
	cur, err := os.ReadFile(filepath.Join(dir, k.pointer))
	if err != nil {
		return zero, 0, nil, err
	}
	id, err := strconv.Atoi(strings.TrimSpace(string(cur)))
	if err != nil || id <= 0 {
		return zero, 0, nil, fmt.Errorf("registry: corrupt %s in %s", k.pointer, dir)
	}
	data, err := os.ReadFile(filepath.Join(dir, k.blobName(id)))
	if err != nil {
		return zero, 0, nil, err
	}
	val, err := k.decode(bytes.NewReader(data))
	if err != nil {
		return zero, 0, nil, fmt.Errorf("registry: invalid %s in %s: %w", k.noun, dir, err)
	}
	return val, id, data, nil
}
