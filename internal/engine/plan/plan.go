// Package plan defines physical query plans: trees of physical operators
// annotated with the optimizer's estimates. The fixed operator key space
// (Operator)_(ExecutionMode)_(Parallelism) is the feature dimensionality
// the paper's classifier is built on (§3.2).
//
// The what-if cache keeps every plan the tuner probes, so a Node holds
// inline only what most operators carry: the operator key, table, index
// definition, residual predicates, driving join, estimates and its
// children. No operator has more than two inputs, so the children sit in
// two inline slots (Kids) rather than in a slice over separate storage:
// Children returns the filled prefix without allocating. The annotations
// only seeks, multi-predicate joins, sorts, aggregates and Top carry
// (SeekPreds, ExtraJoins, SortCols, GroupCols, TopN) live in an Annotations
// block that the few nodes carrying one point at, and the index id is
// derived from the index definition rather than stored. A plan holds only
// what the optimizer chose and estimated: what an execution measured per
// operator is the executor's output, indexed by Walk's pre-order.
package plan

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/engine/catalog"
	"repro/internal/engine/query"
)

// Op enumerates the physical operators the engine supports. The set is
// fixed and known in advance, like SQL Server's, which keeps feature
// vectors at a fixed dimensionality.
type Op uint8

// Physical operators.
const (
	TableScan Op = iota
	IndexSeek
	IndexScan
	ColumnstoreScan
	KeyLookup
	Filter
	HashJoin
	MergeJoin
	NestedLoopJoin
	Sort
	Top
	HashAggregate
	StreamAggregate
	Exchange
	numOps
)

// NumOps is the number of distinct physical operators.
const NumOps = int(numOps)

var opNames = [...]string{
	"TableScan", "IndexSeek", "IndexScan", "ColumnstoreScan", "KeyLookup",
	"Filter", "HashJoin", "MergeJoin", "NestedLoopJoin", "Sort", "Top",
	"HashAggregate", "StreamAggregate", "Exchange",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Mode is the execution mode of an operator.
type Mode uint8

// Execution modes.
const (
	Row Mode = iota
	Batch
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Batch {
		return "Batch"
	}
	return "Row"
}

// Parallelism is the threading mode of an operator.
type Parallelism uint8

// Parallelism modes.
const (
	Serial Parallelism = iota
	Parallel
)

// String implements fmt.Stringer.
func (p Parallelism) String() string {
	if p == Parallel {
		return "Parallel"
	}
	return "Serial"
}

// NumKeys is the size of the fixed operator key space: every
// (operator, mode, parallelism) combination is one feature attribute.
const NumKeys = NumOps * 2 * 2

// KeyIndex maps an (op, mode, parallelism) combination to its attribute
// index in [0, NumKeys).
func KeyIndex(o Op, m Mode, p Parallelism) int {
	return int(o)*4 + int(m)*2 + int(p)
}

// KeyName renders the attribute name for a key index, e.g.
// "HashJoin_Row_Serial".
func KeyName(idx int) string {
	o := Op(idx / 4)
	m := Mode(idx / 2 % 2)
	p := Parallelism(idx % 2)
	return fmt.Sprintf("%s_%s_%s", o, m, p)
}

// Node is one operator in a physical plan tree. Its fields are laid out
// for size (120 bytes on 64-bit platforms): the one-byte operator key sits
// beside Scratch, the children in two inline slots, and the rare
// annotations out of line in Ann.
type Node struct {
	Op   Op
	Mode Mode
	Par  Parallelism

	// Scratch is free for the plan's producer while the node is being
	// built (the optimizer indexes per-node cost arguments with it). It
	// carries no plan semantics: it is excluded from Fingerprint and
	// String and is zeroed on finished plans.
	Scratch int32

	// Kids holds the node's inputs in order: a join fills both slots, a
	// unary operator slot 0 and a leaf neither. Slot 1 is never filled
	// while slot 0 is empty.
	Kids [2]*Node

	// Access-path annotations.
	Table string // base table (scans, seeks, lookups)
	// IndexDef is the index a seek, index scan or columnstore scan reads,
	// carried so the executor can build/reuse the physical structure. It
	// is nil for operators that touch no index.
	IndexDef *catalog.Index

	// ResidualPreds are evaluated on the fly after the access path (or
	// filter) produces its rows.
	ResidualPreds []query.Pred

	// Join annotation (join operators).
	Join *query.Join

	// Ann holds the node's rare annotations, or is nil when it carries
	// none; read them through the accessors of the same names. Finished
	// nodes share no block, and a block is never written once built.
	Ann *Annotations

	// Optimizer estimates for this node.
	EstRows           float64 // estimated output rows
	EstRowWidth       float64 // estimated bytes per output row
	EstBytesProcessed float64 // estimated bytes read/processed by the node
	EstCost           float64 // estimated cost of this node alone
}

// Annotations are the annotations few operators carry, kept out of line so
// that the nodes without any (most of a plan) do not pay for them.
type Annotations struct {
	// SeekPreds are the predicates an index seek satisfies by the key
	// traversal.
	SeekPreds []query.Pred
	// ExtraJoins are additional equijoin predicates applied by the same
	// join operator beyond Join: when more than one join predicate
	// connects the two inputs, the first drives the physical algorithm
	// (hash key, merge order, index probe) and the rest filter its
	// matches. Empty for single-predicate joins.
	ExtraJoins []query.Join
	// SortCols / GroupCols annotate Sort/aggregate operators.
	SortCols  []query.ColRef
	GroupCols []query.ColRef
	// TopN annotates Top operators.
	TopN int
}

// Empty reports whether a carries no annotation, in which case a node
// holds no block for it.
func (a *Annotations) Empty() bool {
	return len(a.SeekPreds) == 0 && len(a.ExtraJoins) == 0 && len(a.SortCols) == 0 &&
		len(a.GroupCols) == 0 && a.TopN == 0
}

// Index returns the id of the index the node reads, or "" when it reads
// none.
func (n *Node) Index() string {
	if n.IndexDef == nil {
		return ""
	}
	return n.IndexDef.ID()
}

// noAnnotations is what a node without a block reads. Nothing writes it.
var noAnnotations Annotations

func (n *Node) ann() *Annotations {
	if n.Ann == nil {
		return &noAnnotations
	}
	return n.Ann
}

// SeekPreds returns the predicates an index seek satisfies by the key
// traversal.
func (n *Node) SeekPreds() []query.Pred { return n.ann().SeekPreds }

// ExtraJoins returns the join predicates a join applies beyond Join.
func (n *Node) ExtraJoins() []query.Join { return n.ann().ExtraJoins }

// SortCols returns a Sort's key columns.
func (n *Node) SortCols() []query.ColRef { return n.ann().SortCols }

// GroupCols returns an aggregate's grouping columns.
func (n *Node) GroupCols() []query.ColRef { return n.ann().GroupCols }

// TopN returns a Top's row limit, 0 for other operators.
func (n *Node) TopN() int { return n.ann().TopN }

// Key returns the node's attribute index in the fixed key space.
func (n *Node) Key() int { return KeyIndex(n.Op, n.Mode, n.Par) }

// KeyName returns the node's attribute name.
func (n *Node) KeyName() string { return KeyName(n.Key()) }

// EstBytesOut returns the estimated output size of the node in bytes.
func (n *Node) EstBytesOut() float64 { return n.EstRows * n.EstRowWidth }

// Children returns the filled prefix of Kids, in order, as a slice of the
// array, so it never allocates. It is nil for a leaf.
func (n *Node) Children() []*Node {
	switch {
	case n.Kids[0] == nil:
		return nil
	case n.Kids[1] == nil:
		return n.Kids[:1]
	}
	return n.Kids[:]
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Kids[0] == nil }

// Walk visits the subtree rooted at n in pre-order, child 0 before child 1.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children() {
		c.Walk(fn)
	}
}

// Plan is a complete physical plan for a query under some configuration.
type Plan struct {
	Root  *Node
	Query *query.Query
	// ConfigFP fingerprints the index configuration the plan was chosen
	// under (catalog.Configuration.Fingerprint()).
	ConfigFP string
	// EstTotalCost is the optimizer's total estimated cost.
	EstTotalCost float64
}

// Fingerprint hashes the plan's physical structure: operators, modes,
// parallelism, tables, indexes, predicates, and join/sort/group
// annotations. Two configurations yielding the same physical plan share a
// fingerprint, which is how execution data is deduplicated (§7.3: many
// configurations map to far fewer distinct plans).
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	var visit func(n *Node)
	visit = func(n *Node) {
		fmt.Fprintf(h, "(%d/%d/%d:%s:%s", n.Op, n.Mode, n.Par, n.Table, n.Index())
		for _, pr := range n.SeekPreds() {
			fmt.Fprintf(h, "s%s", pr.String())
		}
		for _, pr := range n.ResidualPreds {
			fmt.Fprintf(h, "r%s", pr.String())
		}
		if n.Join != nil {
			fmt.Fprintf(h, "j%s", n.Join.String())
		}
		for _, j := range n.ExtraJoins() {
			fmt.Fprintf(h, "J%s", j.String())
		}
		for _, c := range n.SortCols() {
			fmt.Fprintf(h, "o%s", c.String())
		}
		for _, c := range n.GroupCols() {
			fmt.Fprintf(h, "g%s", c.String())
		}
		fmt.Fprintf(h, "t%d", n.TopN())
		for _, c := range n.Children() {
			visit(c)
		}
		h.Write([]byte{')'})
	}
	visit(p.Root)
	return h.Sum64()
}

// String renders the plan as an indented operator tree with estimates,
// similar to a textual showplan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan for %s (est total cost %.2f, config %q)\n", p.Query.Name, p.EstTotalCost, p.ConfigFP)
	var visit func(n *Node, depth int)
	visit = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s", n.KeyName())
		if n.Table != "" {
			fmt.Fprintf(&b, " table=%s", n.Table)
		}
		if ix := n.Index(); ix != "" {
			fmt.Fprintf(&b, " index=%s", ix)
		}
		if n.Join != nil {
			fmt.Fprintf(&b, " on(%s)", n.Join)
			for _, j := range n.ExtraJoins() {
				fmt.Fprintf(&b, " and(%s)", j)
			}
		}
		if seek := n.SeekPreds(); len(seek) > 0 {
			var ps []string
			for _, pr := range seek {
				ps = append(ps, pr.String())
			}
			fmt.Fprintf(&b, " seek(%s)", strings.Join(ps, " AND "))
		}
		if len(n.ResidualPreds) > 0 {
			var ps []string
			for _, pr := range n.ResidualPreds {
				ps = append(ps, pr.String())
			}
			fmt.Fprintf(&b, " where(%s)", strings.Join(ps, " AND "))
		}
		fmt.Fprintf(&b, " [estRows=%.1f estCost=%.2f]", n.EstRows, n.EstCost)
		b.WriteByte('\n')
		for _, c := range n.Children() {
			visit(c, depth+1)
		}
	}
	visit(p.Root, 0)
	return b.String()
}
