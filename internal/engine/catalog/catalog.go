// Package catalog defines the schema metadata of the database engine:
// tables, columns, index definitions (B+ tree and columnstore), and index
// configurations. Configurations are the unit the index tuner manipulates
// and the what-if optimizer plans against.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// ColumnType enumerates the logical column types supported by the engine.
// All values are stored as int64 internally; the type governs generation,
// rendering, and width accounting.
type ColumnType int

const (
	// TypeInt is a 64-bit integer column.
	TypeInt ColumnType = iota
	// TypeFloat is a fixed-point decimal stored as a scaled integer.
	TypeFloat
	// TypeString is a dictionary-encoded string column.
	TypeString
	// TypeDate is a date stored as days since an epoch.
	TypeDate
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "DECIMAL"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Width returns the byte width charged for a value of this type; used for
// bytes-processed accounting in both the optimizer and the executor.
func (t ColumnType) Width() int64 {
	switch t {
	case TypeInt:
		return 8
	case TypeFloat:
		return 8
	case TypeString:
		return 24
	case TypeDate:
		return 4
	default:
		return 8
	}
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColumnType
}

// Table describes a table: its name, ordered columns, and row count.
type Table struct {
	Name    string
	Columns []Column
	Rows    int64
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the named column definition, or nil.
func (t *Table) Column(name string) *Column {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return &t.Columns[i]
}

// RowWidth returns the total byte width of one row of the table.
func (t *Table) RowWidth() int64 {
	var w int64
	for _, c := range t.Columns {
		w += c.Type.Width()
	}
	return w
}

// Schema is the collection of tables of one database.
type Schema struct {
	Name   string
	Tables map[string]*Table
	order  []string
}

// NewSchema creates an empty schema with the given name.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, Tables: map[string]*Table{}}
}

// AddTable registers a table. It panics on duplicate names, which indicates
// a programming error in a workload generator.
func (s *Schema) AddTable(t *Table) {
	if _, ok := s.Tables[t.Name]; ok {
		panic(fmt.Sprintf("catalog: duplicate table %q in schema %q", t.Name, s.Name))
	}
	s.Tables[t.Name] = t
	s.order = append(s.order, t.Name)
}

// Table returns the named table, or nil when absent.
func (s *Schema) Table(name string) *Table { return s.Tables[name] }

// TableNames returns the table names in insertion order.
func (s *Schema) TableNames() []string {
	return append([]string(nil), s.order...)
}

// NumTables returns the number of tables in the schema.
func (s *Schema) NumTables() int { return len(s.Tables) }

// TotalBytes returns the sum of row width × row count over all tables, a
// proxy for the database size used in workload statistics (Table 2).
func (s *Schema) TotalBytes() int64 {
	var b int64
	for _, t := range s.Tables {
		b += t.RowWidth() * t.Rows
	}
	return b
}

// IndexKind distinguishes row-store B+ tree indexes from columnstore
// indexes, mirroring the two index families the paper's workloads use.
type IndexKind int

const (
	// BTree is a row-store B+ tree index over one or more key columns.
	BTree IndexKind = iota
	// Columnstore is a clustered columnstore index covering the table.
	Columnstore
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	if k == Columnstore {
		return "COLUMNSTORE"
	}
	return "BTREE"
}

// Index is an index definition. For B+ tree indexes, KeyColumns is the
// ordered key; IncludedColumns are carried in leaf pages to make the index
// covering. Columnstore indexes cover all table columns and have no key.
type Index struct {
	Table           string
	Kind            IndexKind
	KeyColumns      []string
	IncludedColumns []string

	// id caches ID(). Index definitions are immutable once constructed,
	// so the first render is reused; the zero value (nil) means "not yet
	// computed". Indexes must be shared by pointer, never copied.
	id atomic.Pointer[string]
}

// ID returns a canonical identifier for the index, stable across processes.
// The string is computed once per Index and cached: definitions are
// immutable, and the optimizer's hot path renders index IDs on every plan.
func (ix *Index) ID() string {
	if s := ix.id.Load(); s != nil {
		return *s
	}
	s := ix.buildID()
	ix.id.Store(&s)
	return s
}

func (ix *Index) buildID() string {
	var b strings.Builder
	b.WriteString(ix.Table)
	if ix.Kind == Columnstore {
		b.WriteString("/cs")
		return b.String()
	}
	b.WriteString("/bt(")
	b.WriteString(strings.Join(ix.KeyColumns, ","))
	b.WriteString(")")
	if len(ix.IncludedColumns) > 0 {
		inc := append([]string(nil), ix.IncludedColumns...)
		sort.Strings(inc)
		b.WriteString("+(")
		b.WriteString(strings.Join(inc, ","))
		b.WriteString(")")
	}
	return b.String()
}

// Validate checks structural well-formedness of an index definition: a
// columnstore lists no explicit columns; a B+ tree has at least one key
// column, no repeated key or included columns, and no included column
// duplicating a key column. Candidate generators call this so malformed
// indexes fail loudly at construction instead of inside the what-if
// planner, where a duplicated key column silently skews seek costing.
func (ix *Index) Validate() error {
	if ix.Kind == Columnstore {
		if len(ix.KeyColumns) > 0 || len(ix.IncludedColumns) > 0 {
			return fmt.Errorf("catalog: columnstore index on %q must not list columns", ix.Table)
		}
		return nil
	}
	if len(ix.KeyColumns) == 0 {
		return fmt.Errorf("catalog: btree index on %q has no key columns", ix.Table)
	}
	seen := make(map[string]bool, len(ix.KeyColumns)+len(ix.IncludedColumns))
	for _, c := range ix.KeyColumns {
		if seen[c] {
			return fmt.Errorf("catalog: index %s repeats key column %q", ix.ID(), c)
		}
		seen[c] = true
	}
	for _, c := range ix.IncludedColumns {
		if seen[c] {
			return fmt.Errorf("catalog: index %s repeats column %q", ix.ID(), c)
		}
		seen[c] = true
	}
	return nil
}

// Covers reports whether the index materializes the named column (either as
// a key or included column, or implicitly for columnstore).
func (ix *Index) Covers(col string) bool {
	if ix.Kind == Columnstore {
		return true
	}
	for _, c := range ix.KeyColumns {
		if c == col {
			return true
		}
	}
	for _, c := range ix.IncludedColumns {
		if c == col {
			return true
		}
	}
	return false
}

// CoversAll reports whether the index covers every column in cols.
func (ix *Index) CoversAll(cols []string) bool {
	for _, c := range cols {
		if !ix.Covers(c) {
			return false
		}
	}
	return true
}

// EstimatedBytes estimates the on-disk size of the index for a table, used
// to enforce the tuner's storage budget. B+ trees charge key + included
// widths plus row-locator and page overhead; columnstores charge compressed
// column segments (a flat compression factor models run-length/dictionary
// encoding).
func (ix *Index) EstimatedBytes(t *Table) int64 {
	if t == nil {
		return 0
	}
	if ix.Kind == Columnstore {
		const compression = 4
		return t.RowWidth() * t.Rows / compression
	}
	var w int64 = 8 // row locator
	for _, c := range ix.KeyColumns {
		if col := t.Column(c); col != nil {
			w += col.Type.Width()
		}
	}
	for _, c := range ix.IncludedColumns {
		if col := t.Column(c); col != nil {
			w += col.Type.Width()
		}
	}
	const pageOverhead = 1.1
	return int64(float64(w*t.Rows) * pageOverhead)
}

// Configuration is a set of indexes, keyed by Index.ID. It is the object
// the tuner searches over and the what-if API plans against.
type Configuration struct {
	indexes map[string]*Index

	// fp and sorted lazily cache Fingerprint() and the ID-sorted index
	// slice. Both are invalidated by Add. Configurations are
	// mutated single-threaded during construction and shared read-only
	// afterwards (the tuner clones before adding), so the atomics only
	// need to make concurrent readers safe, and Configurations must be
	// shared by pointer, never copied.
	fp     atomic.Pointer[string]
	sorted atomic.Pointer[[]*Index]
}

// NewConfiguration returns a configuration holding the given indexes.
func NewConfiguration(indexes ...*Index) *Configuration {
	c := &Configuration{indexes: map[string]*Index{}}
	for _, ix := range indexes {
		c.indexes[ix.ID()] = ix
	}
	return c
}

// Clone returns a deep-enough copy (index definitions are immutable and
// shared; the map is copied).
func (c *Configuration) Clone() *Configuration {
	n := &Configuration{indexes: make(map[string]*Index, len(c.indexes))}
	for id, ix := range c.indexes {
		n.indexes[id] = ix
	}
	return n
}

// Add inserts an index and returns the configuration for chaining. Adding an
// already-present index is a no-op.
func (c *Configuration) Add(ix *Index) *Configuration {
	c.indexes[ix.ID()] = ix
	c.fp.Store(nil)
	c.sorted.Store(nil)
	return c
}

// Has reports whether the configuration contains the index.
func (c *Configuration) Has(ix *Index) bool {
	_, ok := c.indexes[ix.ID()]
	return ok
}

// Len returns the number of indexes.
func (c *Configuration) Len() int { return len(c.indexes) }

// Indexes returns the indexes sorted by ID for deterministic iteration. The
// returned slice is the caller's to modify.
func (c *Configuration) Indexes() []*Index {
	return append([]*Index(nil), c.SortedIndexes()...)
}

// SortedIndexes returns the ID-sorted index slice without copying. The slice
// is cached on the configuration and shared between callers: it must be
// treated as read-only. The optimizer's hot path uses it to avoid a sort +
// allocation per plan.
func (c *Configuration) SortedIndexes() []*Index {
	if s := c.sorted.Load(); s != nil {
		return *s
	}
	ids := make([]string, 0, len(c.indexes))
	for id := range c.indexes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Index, len(ids))
	for i, id := range ids {
		out[i] = c.indexes[id]
	}
	c.sorted.Store(&out)
	return out
}

// IndexesOn returns the indexes defined on the named table, sorted by ID.
func (c *Configuration) IndexesOn(table string) []*Index {
	var out []*Index
	for _, ix := range c.Indexes() {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	return out
}

// Fingerprint returns a canonical string identifying the configuration; two
// configurations with the same index set share a fingerprint. The string is
// cached until the next Add/Remove.
func (c *Configuration) Fingerprint() string {
	if s := c.fp.Load(); s != nil {
		return *s
	}
	ids := make([]string, 0, len(c.indexes))
	for id := range c.indexes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := strings.Join(ids, ";")
	c.fp.Store(&s)
	return s
}

// FingerprintOf returns the fingerprint of the indexes of c for which keep
// reports true: the Fingerprint of a configuration holding just those
// indexes. When keep holds for every index it is c's cached Fingerprint.
func (c *Configuration) FingerprintOf(keep func(*Index) bool) string {
	ixs := c.SortedIndexes() // ID order, the order Fingerprint joins in
	n := 0
	for _, ix := range ixs {
		if keep(ix) {
			n++
		}
	}
	if n == len(ixs) {
		return c.Fingerprint()
	}
	ids := make([]string, 0, n)
	for _, ix := range ixs {
		if keep(ix) {
			ids = append(ids, ix.ID())
		}
	}
	return strings.Join(ids, ";")
}

// Diff returns the indexes present in c but not in old, sorted by ID. It is
// the incremental change the continuous tuner implements per iteration.
func (c *Configuration) Diff(old *Configuration) []*Index {
	var out []*Index
	for _, ix := range c.Indexes() {
		if old == nil || !old.Has(ix) {
			out = append(out, ix)
		}
	}
	return out
}
