// Package plan defines physical query plans: trees of physical operators
// annotated with the optimizer's estimates. The fixed operator key space
// (Operator)_(ExecutionMode)_(Parallelism) is the feature dimensionality
// the paper's classifier is built on (§3.2).
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
type Op int

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
type Mode int

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
type Parallelism int

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

// Node is one operator in a physical plan tree.
type Node struct {
	Op       Op
	Mode     Mode
	Par      Parallelism
	Children []*Node

	// Access-path annotations.
	Table string // base table (scans, seeks, lookups)
	Index string // index id (seeks, index scans, columnstore scans)
	// IndexDef is the index definition behind Index, carried so the
	// executor can build/reuse the physical structure. It is nil for
	// operators that touch no index.
	IndexDef *catalog.Index

	// SeekPreds are the predicates satisfied by the index key traversal;
	// ResidualPreds are evaluated on the fly afterwards.
	SeekPreds     []query.Pred
	ResidualPreds []query.Pred

	// Join annotation (join operators).
	Join *query.Join
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

	// Optimizer estimates for this node.
	EstRows           float64 // estimated output rows
	EstRowWidth       float64 // estimated bytes per output row
	EstBytesProcessed float64 // estimated bytes read/processed by the node
	EstCost           float64 // estimated cost of this node alone

	// Execution actuals, filled in by the executor.
	ActualRows float64
	ActualCost float64

	// Scratch is free for the plan's producer while the node is being
	// built (the optimizer indexes per-node cost arguments with it). It
	// carries no plan semantics: it is excluded from Fingerprint and
	// String and is zeroed on finished plans.
	Scratch int32
}

// Key returns the node's attribute index in the fixed key space.
func (n *Node) Key() int { return KeyIndex(n.Op, n.Mode, n.Par) }

// KeyName returns the node's attribute name.
func (n *Node) KeyName() string { return KeyName(n.Key()) }

// EstBytesOut returns the estimated output size of the node in bytes.
func (n *Node) EstBytesOut() float64 { return n.EstRows * n.EstRowWidth }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Walk visits the subtree rooted at n in pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Height returns the height of the node: leaves have height 1.
func (n *Node) Height() int {
	h := 0
	for _, c := range n.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
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
		fmt.Fprintf(h, "(%d/%d/%d:%s:%s", n.Op, n.Mode, n.Par, n.Table, n.Index)
		for _, pr := range n.SeekPreds {
			fmt.Fprintf(h, "s%s", pr.String())
		}
		for _, pr := range n.ResidualPreds {
			fmt.Fprintf(h, "r%s", pr.String())
		}
		if n.Join != nil {
			fmt.Fprintf(h, "j%s", n.Join.String())
		}
		for _, j := range n.ExtraJoins {
			fmt.Fprintf(h, "J%s", j.String())
		}
		for _, c := range n.SortCols {
			fmt.Fprintf(h, "o%s", c.String())
		}
		for _, c := range n.GroupCols {
			fmt.Fprintf(h, "g%s", c.String())
		}
		fmt.Fprintf(h, "t%d", n.TopN)
		for _, c := range n.Children {
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
		if n.Index != "" {
			fmt.Fprintf(&b, " index=%s", n.Index)
		}
		if n.Join != nil {
			fmt.Fprintf(&b, " on(%s)", n.Join)
			for _, j := range n.ExtraJoins {
				fmt.Fprintf(&b, " and(%s)", j)
			}
		}
		if len(n.SeekPreds) > 0 {
			var ps []string
			for _, pr := range n.SeekPreds {
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
		if n.ActualRows > 0 || n.ActualCost > 0 {
			fmt.Fprintf(&b, " [rows=%.0f cost=%.2f]", n.ActualRows, n.ActualCost)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			visit(c, depth+1)
		}
	}
	visit(p.Root, 0)
	return b.String()
}
