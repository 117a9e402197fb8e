package tree

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/util"
)

// Induction engine. Semantics are pinned bit-exact to the seed trainer
// (frozen in ref_train_test.go): identical split gains, thresholds,
// tie-breaks, RNG consumption, node-counter increments, and leaf payloads.
// What changed is the mechanics, which pick one of two layouts by the
// feature budget:
//
//   - Full scans (MaxFeatures 0 or >= d): each feature is sorted once
//     globally in the Matrix and the sorted orders are threaded through
//     the recursion by stable partitioning — O(d·n) per node instead of a
//     per-node O(d·n log n) closure sort, zero allocations outside the
//     tree nodes themselves.
//   - Sampled scans (MaxFeatures < d, the forest case): presorting and
//     partitioning all d features would charge every node for columns it
//     never scans, so only the sampled features' node segments are looked
//     at. Classification reads each one through the Matrix's dense value
//     ranks (scanGiniRanks): class counts per distinct value, gathered by
//     counting or by sorting packed integer keys, reach the same split
//     boundaries with the same integer counts as a scan of the sorted
//     segment. Regression sorts the segment into a pooled (value, key)
//     buffer whose key reproduces the presorted layout's (value, row,
//     sample) tie order exactly, so both layouts accumulate the target
//     sums in the same order and the trees match bit for bit.

// fitScratch is the pooled per-fit working set. Slabs are sized by
// (features d, samples m, rows n) and reused across fits.
type fitScratch struct {
	ord    []int32   // d×m per-feature sample ids, value-ascending, stably partitioned in place
	orig   []int32   // samples in caller idx order (leaf payloads, impurity)
	tmp    []int32   // stable-partition spill buffer
	isLeft []bool    // per sample: goes left under the split being applied
	rowOf  []int32   // sample -> matrix row (bootstrap multisets allowed)
	cls    []int32   // sample -> class label (classification)
	val    []float64 // sample -> target (regression)
	rowPos []int32   // per-row bucket offsets while deriving ord
	rowSmp []int32   // samples bucketed by row while deriving ord
	total  []float64 // node class counts
	lc, rc []float64 // split-scan class-count buffers
	feats  []int     // identity feature list (the all-features scan order)
	pairs  []fvPair  // sampled regression: per-node sort buffer
	keys   []uint64  // sampled classification: per-node rank<<32|class sort buffer
	counts []int32   // sampled classification: rank×class table, all zero between scans
}

// fvPair is one sample in a sampled-mode feature scan: the feature value
// and a composite key row<<32|sample whose ascending order reproduces the
// presorted layout's tie order (value, then matrix row, then sample).
type fvPair struct {
	v   float64
	key int64
}

// cmpFVPair orders by value, then by the (row, sample) key. Capture-free
// so sampled-mode sorts stay allocation-free. The total order pins the
// floating-point accumulation order of the target sums to the full-scan
// layout's, keeping split gains bit-identical.
func cmpFVPair(a, b fvPair) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

var scratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growU32(b []uint32, n int) []uint32 {
	if cap(b) < n {
		return make([]uint32, n)
	}
	return b[:n]
}

func (sc *fitScratch) ensure(d, m, rows, k int, sampled bool) {
	switch {
	case sampled && k > 0:
		if cap(sc.keys) < m {
			sc.keys = make([]uint64, m)
		}
		sc.keys = sc.keys[:m]
		// A feature has at most rows distinct values. Fresh cells are
		// zero, and every scan leaves the cells it counted into zero.
		if cap(sc.counts) < rows*k {
			sc.counts = make([]int32, rows*k)
		}
		sc.counts = sc.counts[:rows*k]
	case sampled:
		if cap(sc.pairs) < m {
			sc.pairs = make([]fvPair, m)
		}
		sc.pairs = sc.pairs[:m]
	default:
		sc.ord = growI32(sc.ord, d*m)
		sc.rowSmp = growI32(sc.rowSmp, m)
		sc.rowPos = growI32(sc.rowPos, rows+1)
	}
	sc.orig = growI32(sc.orig, m)
	sc.rowOf = growI32(sc.rowOf, m)
	sc.tmp = growI32(sc.tmp, m)
	if cap(sc.isLeft) < m {
		sc.isLeft = make([]bool, m)
	}
	sc.isLeft = sc.isLeft[:m]
	if k > 0 {
		sc.cls = growI32(sc.cls, m)
		sc.total = growF64(sc.total, k)
		sc.lc = growF64(sc.lc, k)
		sc.rc = growF64(sc.rc, k)
	} else {
		sc.val = growF64(sc.val, m)
	}
	if cap(sc.feats) < d {
		sc.feats = make([]int, d)
		for i := range sc.feats {
			sc.feats[i] = i
		}
	}
	sc.feats = sc.feats[:d]
}

// fitEngine is one tree induction over a Matrix.
type fitEngine struct {
	t       *Tree
	m       *Matrix
	sc      *fitScratch
	rng     *util.RNG
	cfg     Config
	k       int // classes; 0 = regression
	d       int // features
	n       int // samples (bootstrap size, not matrix rows)
	minLeaf int
	par     int  // feature-scan workers for wide nodes
	sampled bool // feature-subsampled fit: per-node segment sorts, no ord slab
}

// fitMatrix grows t.root over the samples idx of m (nil = all rows).
func (t *Tree) fitMatrix(m *Matrix, y []int, yf []float64, k int, idx []int) {
	sc := scratchPool.Get().(*fitScratch)
	defer scratchPool.Put(sc)
	rows, d := m.rows, m.dims
	msamp := rows
	if idx != nil {
		msamp = len(idx)
	}
	sampled := t.cfg.MaxFeatures > 0 && t.cfg.MaxFeatures < d
	if sampled && k > 0 {
		m.ensureRanks()
	}
	sc.ensure(d, msamp, rows, k, sampled)
	for s := 0; s < msamp; s++ {
		r := s
		if idx != nil {
			r = idx[s]
		}
		sc.rowOf[s] = int32(r)
		sc.orig[s] = int32(s)
		if k > 0 {
			sc.cls[s] = int32(y[r])
		} else {
			sc.val[s] = yf[r]
		}
	}
	if !sampled {
		// Full-scan layout: bucket samples by row (stable in sample order),
		// then expand each feature's global row order into a per-sample
		// sorted order — one O(n+m) pass per feature replaces a per-node
		// sort. Sampled fits skip all of this (and the Matrix's global
		// sorts): they would pay O(d·(n+m)) setup plus O(d·n) partitioning
		// per node for columns most nodes never scan.
		m.ensureOrders()
		rowPos := sc.rowPos[:rows+1]
		for i := range rowPos {
			rowPos[i] = 0
		}
		for s := 0; s < msamp; s++ {
			rowPos[sc.rowOf[s]+1]++
		}
		for r := 0; r < rows; r++ {
			rowPos[r+1] += rowPos[r]
		}
		for s := 0; s < msamp; s++ {
			r := sc.rowOf[s]
			sc.rowSmp[rowPos[r]] = int32(s)
			rowPos[r]++ // rowPos[r] ends as end(r) == start(r+1)
		}
		for f := 0; f < d; f++ {
			w := f * msamp
			for _, r := range m.order[f] {
				lo := int32(0)
				if r > 0 {
					lo = rowPos[r-1]
				}
				for _, s := range sc.rowSmp[lo:rowPos[r]] {
					sc.ord[w] = s
					w++
				}
			}
		}
	}
	e := &fitEngine{
		t:       t,
		m:       m,
		sc:      sc,
		rng:     util.NewRNG(t.cfg.Seed),
		cfg:     t.cfg,
		k:       k,
		d:       d,
		n:       msamp,
		minLeaf: t.cfg.minLeaf(),
		par:     t.cfg.Parallelism,
		sampled: sampled,
	}
	t.root = e.grow(0, msamp, 0)
}

// grow recursively builds the tree over the sample range [lo, hi).
func (e *fitEngine) grow(lo, hi, depth int) *node {
	n := hi - lo
	if n < 2*e.minLeaf ||
		(e.cfg.MaxDepth > 0 && depth >= e.cfg.MaxDepth) ||
		e.impurity(lo, hi) <= e.cfg.ImpurityThreshold {
		return e.leaf(lo, hi)
	}
	feat, thresh, ok := e.bestSplit(lo, hi)
	if !ok {
		return e.leaf(lo, hi)
	}
	col := e.m.cols[feat]
	nl := 0
	for _, s := range e.sc.orig[lo:hi] {
		goesLeft := col[e.sc.rowOf[s]] <= thresh
		e.sc.isLeft[s] = goesLeft
		if goesLeft {
			nl++
		}
	}
	if nl < e.minLeaf || n-nl < e.minLeaf {
		return e.leaf(lo, hi)
	}
	e.t.nodes++
	e.partition(e.sc.orig[lo:hi])
	if !e.sampled {
		for f := 0; f < e.d; f++ {
			base := f * e.n
			e.partition(e.sc.ord[base+lo : base+hi])
		}
	}
	nd := &node{feature: feat, thresh: thresh}
	nd.left = e.grow(lo, lo+nl, depth+1)
	nd.right = e.grow(lo+nl, hi, depth+1)
	return nd
}

// partition stably moves left-going samples to the front of seg: children
// inherit both the caller's sample order (orig) and each feature's sorted
// order without re-sorting.
func (e *fitEngine) partition(seg []int32) {
	spill := e.sc.tmp[:0]
	isLeft := e.sc.isLeft
	w := 0
	for _, s := range seg {
		if isLeft[s] {
			seg[w] = s
			w++
		} else {
			spill = append(spill, s)
		}
	}
	copy(seg[w:], spill)
}

// leaf builds a leaf node for the samples in [lo, hi).
func (e *fitEngine) leaf(lo, hi int) *node {
	e.t.nodes++
	n := float64(hi - lo)
	if e.k > 0 {
		proba := make([]float64, e.k)
		for _, s := range e.sc.orig[lo:hi] {
			proba[e.sc.cls[s]]++
		}
		for c := range proba {
			proba[c] /= n
		}
		return &node{feature: -1, proba: proba}
	}
	var sum float64
	for _, s := range e.sc.orig[lo:hi] {
		sum += e.sc.val[s]
	}
	return &node{feature: -1, value: sum / n}
}

// impurity computes Gini (classification) or variance (regression) over
// the samples in caller order, matching the seed's accumulation order.
func (e *fitEngine) impurity(lo, hi int) float64 {
	n := float64(hi - lo)
	if n == 0 {
		return 0
	}
	if e.k > 0 {
		counts := e.sc.total
		for c := range counts {
			counts[c] = 0
		}
		for _, s := range e.sc.orig[lo:hi] {
			counts[e.sc.cls[s]]++
		}
		g := 1.0
		for _, c := range counts {
			p := c / n
			g -= p * p
		}
		return g
	}
	var sum, sumsq float64
	for _, s := range e.sc.orig[lo:hi] {
		v := e.sc.val[s]
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	return sumsq/n - mean*mean
}

// Wide nodes fan the per-feature scans across workers; below these bounds
// goroutine startup costs more than the scan.
const (
	minParallelFeats = 8
	minParallelRows  = 1024
)

// bestSplit scans candidate features for the split with the largest
// impurity reduction. Feature subsampling consumes the RNG exactly as the
// seed did; the winner is reduced in feats order, so the parallel scan is
// bit-identical to the serial one.
func (e *fitEngine) bestSplit(lo, hi int) (feat int, thresh float64, ok bool) {
	feats := e.sc.feats
	if e.cfg.MaxFeatures > 0 && e.cfg.MaxFeatures < e.d {
		feats = e.rng.SampleWithoutReplacement(e.d, e.cfg.MaxFeatures)
	}
	if e.k > 0 {
		total := e.sc.total
		for c := range total {
			total[c] = 0
		}
		for _, s := range e.sc.orig[lo:hi] {
			total[e.sc.cls[s]]++
		}
	}
	// Sampled fits scan serially: with MaxFeatures ~ sqrt(d) candidates the
	// per-node work is too small for the parallel fan-out to pay off.
	if !e.sampled && e.par > 1 && len(feats) >= minParallelFeats && hi-lo >= minParallelRows {
		return e.bestSplitParallel(feats, lo, hi)
	}
	bestGain := 1e-12
	for _, f := range feats {
		var g, th float64
		var found bool
		switch {
		case e.sampled && e.k > 0:
			g, th, found = e.scanGiniRanks(f, lo, hi)
		case e.sampled:
			g, th, found = e.scanVarPairs(e.sortSeg(f, lo, hi))
		case e.k > 0:
			g, th, found = e.scanGini(f, lo, hi, e.sc.lc, e.sc.rc)
		default:
			g, th, found = e.scanVar(f, lo, hi)
		}
		if found && g > bestGain {
			bestGain, feat, thresh, ok = g, f, th, true
		}
	}
	return feat, thresh, ok
}

// sortSeg materializes feature f's sorted view of the node segment
// [lo, hi) for a sampled regression fit. The composite key makes the
// result exactly the sequence the full-scan layout's partitioned ord slab
// would hold, so every downstream accumulation is bit-identical between
// the two modes.
func (e *fitEngine) sortSeg(f, lo, hi int) []fvPair {
	sc := e.sc
	col := e.m.cols[f]
	rowOf := sc.rowOf
	pairs := sc.pairs[:hi-lo]
	for i, s := range sc.orig[lo:hi] {
		r := rowOf[s]
		pairs[i] = fvPair{v: col[r], key: int64(r)<<32 | int64(s)}
	}
	slices.SortFunc(pairs, cmpFVPair)
	return pairs
}

func (e *fitEngine) bestSplitParallel(feats []int, lo, hi int) (feat int, thresh float64, ok bool) {
	nf := len(feats)
	gains := make([]float64, nf)
	threshes := make([]float64, nf)
	founds := make([]bool, nf)
	workers := e.par
	if workers > nf {
		workers = nf
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lc, rc []float64
			if e.k > 0 {
				lc = make([]float64, e.k)
				rc = make([]float64, e.k)
			}
			for {
				j := int(next.Add(1)) - 1
				if j >= nf {
					return
				}
				if e.k > 0 {
					gains[j], threshes[j], founds[j] = e.scanGini(feats[j], lo, hi, lc, rc)
				} else {
					gains[j], threshes[j], founds[j] = e.scanVar(feats[j], lo, hi)
				}
			}
		}()
	}
	wg.Wait()
	bestGain := 1e-12
	for j, f := range feats {
		if founds[j] && gains[j] > bestGain {
			bestGain, feat, thresh, ok = gains[j], f, threshes[j], true
		}
	}
	return feat, thresh, ok
}

// scanGini scans feature f's presorted samples in [lo, hi) accumulating
// class counts, mirroring the seed's boundary, minLeaf, tie-skip, and
// gain arithmetic exactly (class counts are integers in float64, so the
// gains are bit-identical whatever order equal values were sorted in).
func (e *fitEngine) scanGini(f, lo, hi int, left, right []float64) (gain, thresh float64, ok bool) {
	sc := e.sc
	seg := sc.ord[f*e.n+lo : f*e.n+hi]
	col := e.m.cols[f]
	rowOf := sc.rowOf
	n := len(seg)
	vp := col[rowOf[seg[0]]]
	if vp == col[rowOf[seg[n-1]]] {
		return 0, 0, false // constant feature
	}
	total := sc.total
	parent := giniOf(total, float64(n))
	for c := range left {
		left[c] = 0
	}
	minLeaf := e.minLeaf
	for p := 0; p < n-1; p++ {
		left[sc.cls[seg[p]]]++
		vn := col[rowOf[seg[p+1]]]
		if vp != vn {
			nl := p + 1
			if nl >= minLeaf && n-nl >= minLeaf {
				if g := splitGini(total, left, right, parent, nl, n); g > gain {
					gain = g
					thresh = (vp + vn) / 2
					ok = true
				}
			}
		}
		vp = vn
	}
	return gain, thresh, ok
}

// splitGini is the Gini reduction of splitting n samples with class
// counts total and impurity parent into the nl samples counted in left
// and the rest, whose counts it writes to right.
func splitGini(total, left, right []float64, parent float64, nl, n int) float64 {
	nr := n - nl
	for c := range right {
		right[c] = total[c] - left[c]
	}
	return parent - (float64(nl)*giniOf(left, float64(nl))+float64(nr)*giniOf(right, float64(nr)))/float64(n)
}

// Sampled classification scans gather class counts per rank by counting
// when the feature has at most countRanksPerSample distinct values per
// node sample, and by sorting packed keys otherwise: counting walks the
// ranks between the node's smallest and largest, sorting pays log n per
// sample. The factor was chosen by timing forest fits on featurized plan
// pairs and on synthetic data (EXPERIMENTS.md).
const countRanksPerSample = 2

// scanGiniRanks is scanGini for a sampled fit, read through the Matrix's
// dense value ranks. It evaluates exactly the splits scanGini would on
// the node's sorted segment: scanGini stops only between two distinct
// values, where the samples left of the boundary are those of rank at
// most the lower value's, and their class counts are integers, exact
// whatever order ties were sorted in. So walking the node's present
// ranks in ascending order meets the same boundaries in the same order
// with the same counts and the same two values per threshold, and every
// gain and tie-break comes out bit-identical.
func (e *fitEngine) scanGiniRanks(f, lo, hi int) (gain, thresh float64, ok bool) {
	vals := e.m.vals[f]
	if len(vals) < 2 {
		return 0, 0, false // constant over the whole Matrix
	}
	n := hi - lo
	if len(vals) <= countRanksPerSample*n {
		return e.countGini(f, lo, hi)
	}
	return e.sortGini(f, lo, hi)
}

// countGini is scanGiniRanks by counting: the node's samples go into the
// rank×class table, and the walk over the counted ranks clears each row
// after reading it, leaving the table zero for the next scan.
func (e *fitEngine) countGini(f, lo, hi int) (gain, thresh float64, ok bool) {
	sc := e.sc
	rank, vals, k := e.m.rank[f], e.m.vals[f], e.k
	counts := sc.counts
	rmin, rmax := len(vals), 0
	for _, s := range sc.orig[lo:hi] {
		r := int(rank[sc.rowOf[s]])
		counts[r*k+int(sc.cls[s])]++
		rmin, rmax = min(rmin, r), max(rmax, r)
	}
	if rmin == rmax {
		clear(counts[rmin*k : (rmin+1)*k])
		return 0, 0, false // constant within the node
	}
	n := hi - lo
	total, left, right := sc.total, sc.lc, sc.rc
	parent := giniOf(total, float64(n))
	clear(left)
	nl, prev := 0, -1
	for r := rmin; r <= rmax; r++ {
		row := counts[r*k : (r+1)*k]
		var m int32
		for _, c := range row {
			m += c
		}
		if m == 0 {
			continue
		}
		if prev >= 0 && nl >= e.minLeaf && n-nl >= e.minLeaf {
			if g := splitGini(total, left, right, parent, nl, n); g > gain {
				gain = g
				thresh = (vals[prev] + vals[r]) / 2
				ok = true
			}
		}
		for c, x := range row {
			left[c] += float64(x)
		}
		clear(row)
		nl += int(m)
		prev = r
	}
	return gain, thresh, ok
}

// sortGini is scanGiniRanks by sorting the node's rank<<32|class keys:
// ascending keys list the samples by rank, ties by class.
func (e *fitEngine) sortGini(f, lo, hi int) (gain, thresh float64, ok bool) {
	sc := e.sc
	rank, vals := e.m.rank[f], e.m.vals[f]
	n := hi - lo
	keys := sc.keys[:n]
	for i, s := range sc.orig[lo:hi] {
		keys[i] = uint64(rank[sc.rowOf[s]])<<32 | uint64(sc.cls[s])
	}
	slices.Sort(keys)
	rp := keys[0] >> 32
	if rp == keys[n-1]>>32 {
		return 0, 0, false // constant within the node
	}
	total, left, right := sc.total, sc.lc, sc.rc
	parent := giniOf(total, float64(n))
	clear(left)
	for p := 0; p < n-1; p++ {
		left[uint32(keys[p])]++
		rn := keys[p+1] >> 32
		if rp != rn {
			nl := p + 1
			if nl >= e.minLeaf && n-nl >= e.minLeaf {
				if g := splitGini(total, left, right, parent, nl, n); g > gain {
					gain = g
					thresh = (vals[rp] + vals[rn]) / 2
					ok = true
				}
			}
		}
		rp = rn
	}
	return gain, thresh, ok
}

// scanVar is scanGini's variance-reduction counterpart for regression.
func (e *fitEngine) scanVar(f, lo, hi int) (gain, thresh float64, ok bool) {
	sc := e.sc
	seg := sc.ord[f*e.n+lo : f*e.n+hi]
	col := e.m.cols[f]
	rowOf := sc.rowOf
	n := len(seg)
	vp := col[rowOf[seg[0]]]
	if vp == col[rowOf[seg[n-1]]] {
		return 0, 0, false // constant feature
	}
	var totSum, totSq float64
	for _, s := range seg {
		v := sc.val[s]
		totSum += v
		totSq += v * v
	}
	parent := totSq/float64(n) - (totSum/float64(n))*(totSum/float64(n))
	var lSum, lSq float64
	minLeaf := e.minLeaf
	for p := 0; p < n-1; p++ {
		v := sc.val[seg[p]]
		lSum += v
		lSq += v * v
		vn := col[rowOf[seg[p+1]]]
		if vp != vn {
			nl := float64(p + 1)
			nr := float64(n) - nl
			if int(nl) >= minLeaf && int(nr) >= minLeaf {
				rSum, rSq := totSum-lSum, totSq-lSq
				lVar := lSq/nl - (lSum/nl)*(lSum/nl)
				rVar := rSq/nr - (rSum/nr)*(rSum/nr)
				g := parent - (nl*lVar+nr*rVar)/float64(n)
				if g > gain {
					gain = g
					thresh = (vp + vn) / 2
					ok = true
				}
			}
		}
		vp = vn
	}
	return gain, thresh, ok
}

// scanVarPairs is scanVar over a sampled-mode sorted segment.
func (e *fitEngine) scanVarPairs(pairs []fvPair) (gain, thresh float64, ok bool) {
	sc := e.sc
	n := len(pairs)
	vp := pairs[0].v
	if vp == pairs[n-1].v {
		return 0, 0, false // constant feature
	}
	var totSum, totSq float64
	for _, pr := range pairs {
		v := sc.val[int32(pr.key)]
		totSum += v
		totSq += v * v
	}
	parent := totSq/float64(n) - (totSum/float64(n))*(totSum/float64(n))
	var lSum, lSq float64
	minLeaf := e.minLeaf
	for p := 0; p < n-1; p++ {
		v := sc.val[int32(pairs[p].key)]
		lSum += v
		lSq += v * v
		vn := pairs[p+1].v
		if vp != vn {
			nl := float64(p + 1)
			nr := float64(n) - nl
			if int(nl) >= minLeaf && int(nr) >= minLeaf {
				rSum, rSq := totSum-lSum, totSq-lSq
				lVar := lSq/nl - (lSum/nl)*(lSum/nl)
				rVar := rSq/nr - (rSum/nr)*(rSum/nr)
				g := parent - (nl*lVar+nr*rVar)/float64(n)
				if g > gain {
					gain = g
					thresh = (vp + vn) / 2
					ok = true
				}
			}
		}
		vp = vn
	}
	return gain, thresh, ok
}

func giniOf(counts []float64, n float64) float64 {
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}
