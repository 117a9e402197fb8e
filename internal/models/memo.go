package models

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/ml"
	"repro/internal/util"
)

// verdictMemo is a memoizing view of a Classifier. A Classifier's verdict
// is argmax(Model.PredictProba(Feat.Pair(p1, p2))): the pair vector is the
// model's whole input and every ml learner infers deterministically, so a
// verdict keyed on the exact bits of the vector is the one the model would
// give. Vectors that compare equal with different bits (−0 and +0) only
// cost a miss.
type verdictMemo struct {
	c        *Classifier
	mu       sync.Mutex
	verdicts map[string]expdata.Label // key: appendVectorKey of the pair vector
}

// Memoize returns a comparator that answers exactly like cmp. When cmp is a
// *Classifier, it runs the model once per distinct pair vector and serves
// repeats from memory; any other comparator is returned unchanged. The
// result is safe for concurrent use. It keeps every verdict it has made
// for its lifetime, so give it the lifetime of one tuning job: a memo that
// outlived a retrained or swapped model would keep the old model's
// verdicts, and its memory grows with the distinct pairs it sees.
func Memoize(cmp Comparator) Comparator {
	c, ok := cmp.(*Classifier)
	if !ok {
		return cmp
	}
	return &verdictMemo{c: c, verdicts: make(map[string]expdata.Label)}
}

// appendVectorKey appends the exact bits of every attribute of x to b.
func appendVectorKey(b []byte, x []float64) []byte {
	for _, v := range x {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// memoScratch pools Compare's buffers: the classifier's, plus the key.
type memoScratch struct {
	cmpScratch
	key []byte
}

// memoBatchScratch pools CompareBatch's buffers: the classifier's, plus
// the keys and the bookkeeping of the misses.
type memoBatchScratch struct {
	batchScratch
	keys []byte         // the pairs' keys, each kw bytes
	miss []int          // pairs the memo did not hold
	rows [][]float64    // the distinct misses' vectors
	row  map[string]int // a distinct miss's key to its index in rows
}

var (
	memoPool      = sync.Pool{New: func() any { return new(memoScratch) }}
	memoBatchPool = sync.Pool{New: func() any { return &memoBatchScratch{row: map[string]int{}} }}
)

// Compare implements Comparator. A hit allocates nothing: the vector and
// its key live in pooled scratch, and the map probe with string(key) does
// not copy the key. Only an insert copies it.
func (m *verdictMemo) Compare(p1, p2 *plan.Plan) expdata.Label {
	s := memoPool.Get().(*memoScratch)
	s.pair = m.c.Feat.PairInto(p1, p2, s.pair)
	s.key = appendVectorKey(s.key[:0], s.pair)
	m.mu.Lock()
	v, ok := m.verdicts[string(s.key)]
	m.mu.Unlock()
	if !ok {
		s.proba = ml.PredictProbaInto(m.c.Model, s.pair, s.proba)
		v = expdata.Label(util.ArgMax(s.proba))
		m.mu.Lock()
		m.verdicts[string(s.key)] = v
		m.mu.Unlock()
	}
	memoPool.Put(s)
	return v
}

// CompareBatch implements BatchComparator. The batch's misses are
// deduplicated and classified by one batched inference call, which is
// bit-identical to Compare's.
func (m *verdictMemo) CompareBatch(pairs []PlanPair, out []expdata.Label) []expdata.Label {
	out = growLabels(out, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	s := memoBatchPool.Get().(*memoBatchScratch)
	s.X = ml.GrowRows(s.X, len(pairs))
	s.keys = s.keys[:0]
	for i, p := range pairs {
		s.X[i] = m.c.Feat.PairInto(p.P1, p.P2, s.X[i])
		s.keys = appendVectorKey(s.keys, s.X[i])
	}
	// Every vector of one featurizer has the same length, so the keys are
	// equal-width slices of one buffer.
	kw := len(s.keys) / len(pairs)
	key := func(i int) []byte { return s.keys[i*kw : (i+1)*kw] }

	s.miss = s.miss[:0]
	m.mu.Lock()
	for i := range pairs {
		if v, ok := m.verdicts[string(key(i))]; ok {
			out[i] = v
		} else {
			s.miss = append(s.miss, i)
		}
	}
	m.mu.Unlock()
	if len(s.miss) == 0 {
		memoBatchPool.Put(s)
		return out
	}

	// One inference per distinct missing vector. Inserting into s.row
	// copies the key; the memo keeps that copy.
	s.rows = s.rows[:0]
	for _, i := range s.miss {
		if _, dup := s.row[string(key(i))]; !dup {
			s.row[string(key(i))] = len(s.rows)
			s.rows = append(s.rows, s.X[i])
		}
	}
	s.P = ml.PredictProbaBatch(m.c.Model, s.rows, s.P)
	m.mu.Lock()
	for k, j := range s.row {
		m.verdicts[k] = expdata.Label(util.ArgMax(s.P[j]))
	}
	m.mu.Unlock()
	for _, i := range s.miss {
		out[i] = expdata.Label(util.ArgMax(s.P[s.row[string(key(i))]]))
	}
	clear(s.row) // the pool must not keep this job's keys alive
	memoBatchPool.Put(s)
	return out
}
