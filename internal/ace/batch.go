package ace

import (
	"errors"
	"math/bits"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// This file is the analysis half of the batched evaluation path. A
// BatchGroup owns the per-stream work every variant shares: the deadness
// classification of the commit log, which is Seq-value-independent. It
// analyses the body prefix [0, M) once per batch, where M is the highest
// committed end any lane reached, and keeps the flat def-use arrays. Each
// lane's committed set is that prefix minus a set R (its end-of-run holes
// plus [n, M)), all at or after its first hole f; Finish derives the lane's
// exact classification by patching the tail instead of re-analysing it
// (see patch). A BatchCollector is one lane's pipeline.BatchSink: it keys
// every deferred charge by body index, which both skips instruction
// reconstruction on the hot path and lets Finish settle charges by direct
// indexing. All charges flow through the same Report.addRead/addNeverRead/
// SBReport.add/LSQReport.add helpers as the trace analyses (avf.go, ooo.go),
// which integrate per residency over a full-log AnalyzeDeadness and serve
// as the independent oracle: the stream-batch seraudit check pins a lane's
// reports against them on a reference-interpreter trace, and
// batched-independent pins K lanes against K one-lane runs.

// bodyPrefixer is the optional fast path for obtaining the shared commit
// log as a slice; workload.Shared implements it.
type bodyPrefixer interface {
	BodyPrefix(m int) []isa.Inst
}

// BatchGroup shares one decoded stream's analyses across the lanes of a
// batch. Not safe for concurrent use: one group serves one batch at a
// time.
type BatchGroup struct {
	src pipeline.BatchSource
	// end is the highest committed end (BatchCollector.n) of any lane armed
	// on the group since the last Reset — the batch's M once every lane has
	// run. Collectors raise it as they commit, so any driver that runs all
	// of a batch's lanes before the first Finish gets one analysis per batch.
	end int
	// memo is the analysis of the last prefix length asked for.
	memo *prefixAnalysis
}

// prefixAnalysis is the deadness analysis of the body prefix [0, m), with
// the def-use arrays the per-lane tail patch reads.
type prefixAnalysis struct {
	m    int
	log  []isa.Inst
	du   *defUse
	dead *Deadness // seqs dropped: every lane supplies its own
	// below[i] is the first position after i whose clamped call depth is
	// below i's, or -1.
	below []int32
	// shape[i] is body i's charge-bucket bits: 2 if it names a destination
	// register, plus 1 if it is a control-flow instruction.
	shape []uint8
}

// NewBatchGroup wraps the batch's shared stream.
func NewBatchGroup(src pipeline.BatchSource) *BatchGroup {
	return &BatchGroup{src: src}
}

// Release drops the group's memoised analysis — the largest state a group
// holds — for an owner that keeps the group but does not expect its next
// batch soon. The next batch analyses afresh.
func (g *BatchGroup) Release() { g.memo = nil }

// commitLog returns the first m body instructions as a slice — the shared
// stand-in for any lane's commit log (deadness and the per-commit fields
// are Seq-value-independent). The workload.Shared fast path aliases the
// generator's memo; the fallback copies through the interface.
func (g *BatchGroup) commitLog(m int) []isa.Inst {
	if p, ok := g.src.(bodyPrefixer); ok {
		return p.BodyPrefix(m)
	}
	log := make([]isa.Inst, m)
	for i := range log {
		log[i] = *g.src.Body(i)
	}
	return log
}

// analysis returns the memoised analysis of the first m body instructions.
func (g *BatchGroup) analysis(m int) *prefixAnalysis {
	if a := g.memo; a != nil && a.m == m {
		return a
	}
	log := g.commitLog(m)
	du := buildDefUse(log)
	a := &prefixAnalysis{
		m:     m,
		log:   log,
		du:    du,
		dead:  du.deadness(log),
		below: firstBelow(log),
		shape: make([]uint8, m),
	}
	a.dead.seqs = nil
	for i := range log {
		a.shape[i] = shapeOf(&log[i])
	}
	g.memo = a
	return a
}

// shapeOf is an instruction's charge-bucket bits (see prefixAnalysis.shape).
func shapeOf(in *isa.Inst) uint8 {
	var s uint8
	if in.Dest != isa.RegNone {
		s = 2
	}
	if in.Class.IsControl() {
		s++
	}
	return s
}

// firstBelow computes, for every log position, the first later position
// whose clamped call depth is strictly lower (-1 when none): a
// next-smaller-element scan whose stack holds at most one position per
// depth.
func firstBelow(log []isa.Inst) []int32 {
	out := make([]int32, len(log))
	var stack [maxTrackedDepth + 1]int32
	top := 0
	for i := len(log) - 1; i >= 0; i-- {
		d := clampDepth(&log[i])
		for top > 0 && clampDepth(&log[stack[top-1]]) >= d {
			top--
		}
		out[i] = -1
		if top > 0 {
			out[i] = stack[top-1]
		}
		stack[top] = int32(i)
		top++
	}
	return out
}

// commitRec is one body position's deferred IQ charge: the lane's
// relabeled Seq, the pre-issue wait, and the post-issue linger, packed into
// one cache line's worth so the three per-commit writes touch one array.
type commitRec struct {
	seq, wait, linger uint64
}

// BatchCollector folds one lane's compact events into ACE reports, with no
// isa.Inst reconstruction anywhere on the event path. It is the only
// production collector: a single run is a one-lane batch.
type BatchCollector struct {
	cfg   CollectorConfig
	group *BatchGroup

	recs    []commitRec // indexed by body position; zero value = no commit yet
	bits    []uint64    // committed-body bitmap, parallel to recs
	n       int         // one past the highest committed body index
	commits int         // total commits; == n iff [0, n) is hole-free

	// Read charges whose category resolves in Finish, summed per body
	// position (each report's charge is linear in the occupancy, so sums
	// settle exactly); parallel to recs, empty when the structure is off.
	feWait  []uint64
	sbOcc   []uint64
	robWait []uint64
	lsqOcc  []uint64
	// issue is each committed position's issue cycle, kept only for the
	// RegFile analysis.
	issue []uint64

	iq  Report
	fe  Report
	sb  SBReport
	rob Report
	lsq LSQReport

	// Wrong-path IQ residencies aggregate during the run (addRead is
	// linear, so summed buckets settle exactly); index is dest<<1 | control.
	wrongIQ [4]struct{ wait, linger uint64 }

	// Finish's scratch, kept across Reset: the tail patch's per-position
	// state and its worklist bitmap.
	tail []tailPos
	pend []uint64
}

// NewBatchCollector builds one lane's collector over the batch's shared
// group, with the analyses cfg enables. RegFile additionally keeps one
// issue cycle per body position; with it off nothing extra is stored.
func NewBatchCollector(cfg CollectorConfig, group *BatchGroup) (*BatchCollector, error) {
	c := &BatchCollector{}
	if err := c.Reset(cfg, group); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-arms a finished collector for a new lane, reusing the commit
// record, bitmap and charge storage so a pooled collector's steady state
// allocates nothing on the event path. Safe after Finish: the returned
// Reports are detached copies and the deadness views own their seqs, so
// resetting never mutates previously returned results. Arming a collector
// starts a new batch on the group: all of a batch's collectors are armed
// before its first Finish.
func (c *BatchCollector) Reset(cfg CollectorConfig, group *BatchGroup) error {
	if group == nil {
		return errors.New("ace: collector needs a batch group")
	}
	c.cfg, c.group = cfg, group
	group.end = 0
	// A lane overshoots its commit target by at most IssueWidth-1 commits
	// (one final multi-issue cycle); the slack keeps the last commits from
	// hitting the grow path.
	want := int(cfg.Commits) + 16
	nb := (want + 63) / 64
	if cap(c.recs) < want || cap(c.bits) < nb {
		c.recs = make([]commitRec, want)
		c.bits = make([]uint64, nb)
	} else {
		c.recs = c.recs[:want]
		c.bits = c.bits[:nb]
		clear(c.recs)
		clear(c.bits)
	}
	c.feWait = charges(c.feWait, cfg.FrontEnd, want)
	c.sbOcc = charges(c.sbOcc, cfg.StoreBuffer, want)
	c.robWait = charges(c.robWait, cfg.ROBSize > 0, want)
	c.lsqOcc = charges(c.lsqOcc, cfg.LSQSize > 0, want)
	c.issue = charges(c.issue, cfg.RegFile, want)
	c.n, c.commits = 0, 0
	c.iq, c.fe, c.sb = Report{}, Report{}, SBReport{}
	c.rob, c.lsq = Report{}, LSQReport{}
	c.wrongIQ = [4]struct{ wait, linger uint64 }{}
	return nil
}

// charges re-arms one per-body charge array: zeroed at length n when the
// structure is analysed, empty otherwise.
func charges(buf []uint64, on bool, n int) []uint64 {
	if !on {
		return buf[:0]
	}
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// grow extends every body-indexed array past body.
func (c *BatchCollector) grow(body int) {
	c.recs = append(c.recs, make([]commitRec, body+16-len(c.recs))...)
	c.bits = append(c.bits, make([]uint64, (len(c.recs)+63)/64-len(c.bits))...)
	for _, a := range [...]*[]uint64{&c.feWait, &c.sbOcc, &c.robWait, &c.lsqOcc, &c.issue} {
		if len(*a) > 0 {
			*a = append(*a, make([]uint64, len(c.recs)-len(*a))...)
		}
	}
}

// BatchCommit implements pipeline.BatchSink. Out-of-order lanes commit in
// dataflow order, so charges are placed by body index; every body index
// below the final commit count commits exactly once, making the array
// dense by Finish (pre-zeroed gaps are overwritten when their commit
// arrives).
func (c *BatchCollector) BatchCommit(ref pipeline.BatchRef, seq, enq, issue uint64) {
	body := ref.Body()
	if body >= len(c.recs) {
		c.grow(body)
	}
	c.recs[body].seq = seq
	c.recs[body].wait = issue - enq
	if len(c.issue) > 0 {
		c.issue[body] = issue
	}
	c.bits[body>>6] |= 1 << (uint(body) & 63)
	c.commits++
	if body >= c.n {
		c.n = body + 1
		if c.n > c.group.end {
			c.group.end = c.n
		}
	}
}

// BatchResidency implements pipeline.BatchSink: one closed IQ interval.
func (c *BatchCollector) BatchResidency(ref pipeline.BatchRef, seq, enq, issue, evict uint64, issued, squashed bool) {
	if evict <= enq {
		return
	}
	occ := evict - enq
	if !issued {
		c.iq.addNeverRead(occ)
		return
	}
	wait := issue - enq
	linger := evict - issue
	if ref.Wrong() {
		t := c.group.src.Wrong(int(seq) - ref.Body())
		key := 0
		if t.Dest != isa.RegNone {
			key += 2
		}
		if t.Class.IsControl() {
			key++
		}
		c.wrongIQ[key].wait += wait
		c.wrongIQ[key].linger += linger
		return
	}
	// Correct path: the commit event always precedes the eviction (evict
	// runs before issue within a cycle, so an entry issued at cycle t
	// closes its interval at t+1 or later), so the body's record exists and
	// the linger parks next to the wait for one fused addRead in Finish.
	// addRead charges linger category-independently (ExACEBC only), so the
	// fused call is bit-identical to the trace analysis's split charges.
	if body := ref.Body(); body < c.n {
		c.recs[body].linger += linger
	} else {
		c.iq.addRead(0, linger, CatACE, false, false)
	}
}

// BatchFrontEnd implements pipeline.BatchSink: one closed fetch-buffer
// interval.
func (c *BatchCollector) BatchFrontEnd(ref pipeline.BatchRef, seq, fetched, until uint64, delivered bool) {
	if !c.cfg.FrontEnd {
		return
	}
	if until <= fetched {
		return
	}
	wait := until - fetched
	if !delivered {
		c.fe.addNeverRead(wait)
		return
	}
	if ref.Wrong() {
		t := c.group.src.Wrong(int(seq) - ref.Body())
		c.fe.addRead(wait, 0, CatWrongPath, t.Dest != isa.RegNone, t.Class.IsControl())
		return
	}
	body := ref.Body()
	if body >= len(c.recs) {
		c.grow(body)
	}
	c.feWait[body] += wait
}

// BatchStoreBuffer implements pipeline.BatchSink: one drained (or run-end
// clipped) store-buffer interval.
func (c *BatchCollector) BatchStoreBuffer(ref pipeline.BatchRef, seq, enq, evict uint64) {
	if !c.cfg.StoreBuffer {
		return
	}
	if evict <= enq {
		return
	}
	body := ref.Body()
	if body >= len(c.recs) {
		c.grow(body)
	}
	c.sbOcc[body] += evict - enq
}

// BatchROB implements pipeline.BatchOOOSink: one closed reorder-buffer
// interval. Read (retired) entries are always correct-path and committed,
// so their category resolves from the shared log in Finish.
func (c *BatchCollector) BatchROB(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	if c.cfg.ROBSize == 0 {
		return
	}
	if evict <= enq {
		return
	}
	occ := evict - enq
	if !read {
		c.rob.addNeverRead(occ)
		return
	}
	body := ref.Body()
	if body >= len(c.recs) {
		c.grow(body)
	}
	c.robWait[body] += occ
}

// BatchLSQ implements pipeline.BatchOOOSink: one closed load/store-queue
// interval.
func (c *BatchCollector) BatchLSQ(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	if c.cfg.LSQSize == 0 {
		return
	}
	if evict <= enq {
		return
	}
	occ := evict - enq
	if !read {
		c.lsq.addNeverRead(occ)
		return
	}
	body := ref.Body()
	if body >= len(c.recs) {
		c.grow(body)
	}
	c.lsqOcc[body] += occ
}

// committed reports whether body position i has committed.
func (c *BatchCollector) committed(i int) bool {
	return i < c.n && c.bits[i>>6]>>(uint(i)&63)&1 == 1
}

// firstHole returns the lowest uncommitted body position below n, or n.
func (c *BatchCollector) firstHole() int {
	for w, b := range c.bits[:(c.n+63)/64] {
		if b != ^uint64(0) {
			return min(w*64+bits.TrailingZeros64(^b), c.n)
		}
	}
	return c.n
}

// chargeBuckets accumulates a lane's deferred read charges per (category,
// dest, control) bucket — key cat<<2 | shape — before one addRead (or add)
// per bucket folds them into the reports.
type chargeBuckets struct {
	iq            [NumCategories * 4]struct{ wait, linger uint64 }
	fe, rob       [NumCategories * 4]uint64
	sbOcc, lsqOcc [NumCategories]uint64
}

// add charges body position i's deferred charges under key.
func (b *chargeBuckets) add(c *BatchCollector, i int, key uint8) {
	r := &c.recs[i]
	b.iq[key].wait += r.wait
	b.iq[key].linger += r.linger
	if len(c.feWait) > 0 {
		b.fe[key] += c.feWait[i]
	}
	if len(c.robWait) > 0 {
		b.rob[key] += c.robWait[i]
	}
	if len(c.sbOcc) > 0 {
		b.sbOcc[key>>2] += c.sbOcc[i]
	}
	if len(c.lsqOcc) > 0 {
		b.lsqOcc[key>>2] += c.lsqOcc[i]
	}
}

// Finish settles every deferred charge against the lane's deadness and
// returns the lane's reports. cycles is the lane's Stats.Cycles. The
// collector must not receive further events.
func (c *BatchCollector) Finish(cycles uint64) *Reports {
	dead, f := &Deadness{}, 0
	var a *prefixAnalysis
	if c.n > 0 {
		a = c.group.analysis(max(c.group.end, c.n))
		dead, f = c.patch(a)
	}
	// Body positions below the first hole are committed and sit at their
	// own index in the lane's log; the rest are committed tail positions
	// (at their rank) or were never committed — in flight at run end, so
	// conservatively live.
	var b chargeBuckets
	for i := 0; i < f; i++ {
		b.add(c, i, uint8(dead.cats[i])<<2|a.shape[i])
	}
	for i := f; i < len(c.recs); i++ {
		cat := CatACE
		switch {
		case c.committed(i):
			cat = dead.cats[c.tail[i-f].rank]
		case !c.charged(i):
			continue
		}
		var shape uint8
		if a != nil && i < a.m {
			shape = a.shape[i]
		} else {
			shape = shapeOf(c.group.src.Body(i))
		}
		b.add(c, i, uint8(cat)<<2|shape)
	}
	for key, v := range b.iq {
		if v.wait == 0 && v.linger == 0 {
			continue
		}
		c.iq.addRead(v.wait, v.linger, Category(key>>2), key&2 != 0, key&1 != 0)
	}
	for key, v := range c.wrongIQ {
		if v.wait == 0 && v.linger == 0 {
			continue
		}
		c.iq.addRead(v.wait, v.linger, CatWrongPath, key&2 != 0, key&1 != 0)
	}
	// The returned Reports are value copies detached from the collector's
	// own fields (Report and SBReport are flat apart from the Dead pointer,
	// whose view is built fresh by patch), so a later Reset-and-reuse of
	// this collector cannot reach back into results a caller retained.
	c.iq.Cycles = cycles
	c.iq.Entries = c.cfg.IQSize
	c.iq.BitsPer = isa.EntryPayloadBits
	c.iq.Dead = dead
	c.iq.finalize()
	iq := c.iq
	out := &Reports{IQ: &iq, Dead: dead}

	if c.cfg.FrontEnd {
		for key, w := range b.fe {
			if w != 0 {
				c.fe.addRead(w, 0, Category(key>>2), key&2 != 0, key&1 != 0)
			}
		}
		c.fe.Cycles = cycles
		c.fe.Entries = c.cfg.FrontEndCap
		c.fe.BitsPer = isa.EntryPayloadBits
		c.fe.Dead = dead
		c.fe.finalize()
		fe := c.fe
		out.FrontEnd = &fe
	}
	if c.cfg.StoreBuffer {
		for cat, occ := range b.sbOcc {
			if occ != 0 {
				c.sb.add(occ, Category(cat))
			}
		}
		c.sb.Cycles = cycles
		c.sb.Entries = c.cfg.StoreBufferCap
		c.sb.finalize()
		sb := c.sb
		out.StoreBuffer = &sb
	}
	if c.cfg.ROBSize > 0 {
		for key, w := range b.rob {
			if w != 0 {
				c.rob.addRead(w, 0, Category(key>>2), key&2 != 0, key&1 != 0)
			}
		}
		c.rob.Cycles = cycles
		c.rob.Entries = c.cfg.ROBSize
		c.rob.BitsPer = isa.EntryPayloadBits
		c.rob.Dead = dead
		c.rob.finalize()
		rob := c.rob
		out.ROB = &rob
	}
	if c.cfg.LSQSize > 0 {
		for cat, occ := range b.lsqOcc {
			if occ != 0 {
				c.lsq.add(occ, Category(cat))
			}
		}
		c.lsq.Cycles = cycles
		c.lsq.Entries = c.cfg.LSQSize
		c.lsq.finalize()
		lsq := c.lsq
		out.LSQ = &lsq
	}
	if c.cfg.RegFile {
		out.RegFile = c.regFile(cycles, dead)
	}
	return out
}

// regFile runs the register-file analysis over the lane's commit log —
// its committed body positions in program order, each at its issue cycle
// and classified by the lane's deadness, whose categories are in the same
// order. A dense lane's log is the shared body prefix itself; only a holed
// one is compacted into a copy.
func (c *BatchCollector) regFile(cycles uint64, dead *Deadness) *RegFileReport {
	if c.commits == c.n {
		return analyzeRegFileLog(c.group.commitLog(c.n), c.issue[:c.n], dead.cats, cycles)
	}
	log := make([]isa.Inst, 0, c.commits)
	at := make([]uint64, 0, c.commits)
	for i := 0; i < c.n; i++ {
		if c.committed(i) {
			log = append(log, *c.group.src.Body(i))
			at = append(at, c.issue[i])
		}
	}
	return analyzeRegFileLog(log, at, dead.cats, cycles)
}

// charged reports whether body position i carries any deferred charge.
func (c *BatchCollector) charged(i int) bool {
	r := &c.recs[i]
	return r.wait|r.linger != 0 ||
		len(c.feWait) > 0 && c.feWait[i] != 0 ||
		len(c.sbOcc) > 0 && c.sbOcc[i] != 0 ||
		len(c.robWait) > 0 && c.robWait[i] != 0 ||
		len(c.lsqOcc) > 0 && c.lsqOcc[i] != 0
}

// tailPos is the tail patch's state for one analysed position t = f+j at
// or after the lane's first hole f.
type tailPos struct {
	kept bool       // t committed in the lane
	rank int32      // t's index in the lane's log, when kept
	over int32      // lane overwrite of the definition at t (prefix index), or -1
	use  useSummary // the lane's consumers of the definition at t
	// aOver and aUse are the lane overwrite and tail consumers of the
	// definition p < f whose prefix overwrite is t, if there is one: the
	// definitions live across f, which alone can see their def-use change.
	aOver int32
	aUse  useSummary
}

// patch derives the lane's exact deadness from the shared analysis of the
// prefix [0, a.m): the classification AnalyzeDeadness would produce on the
// lane's committed sub-log, which is the prefix minus R = its holes plus
// [n, a.m). It also returns the lane's first hole f (a.m when R is empty).
//
// Positions below f are unchanged, so only definitions live across f can
// see their overwrite, consumers or return-deadness change: the tail is
// re-linked over the prefix's producer and overwrite chains, classified in
// descending order, and every category change that alters what a producer
// reads (dead or live, via memory or not) is pushed down a worklist in
// descending position order, so each definition is re-classified once,
// after all of its consumers.
func (c *BatchCollector) patch(a *prefixAnalysis) (*Deadness, int) {
	seqs := make([]uint64, c.commits)
	f := c.firstHole()
	if f == a.m {
		// R is empty: the lane committed exactly the analysed prefix.
		for i := range seqs {
			seqs[i] = c.recs[i].seq
		}
		d := *a.dead
		d.seqs = seqs
		return &d, f
	}
	du, log := a.du, a.log

	L := a.m - f
	if cap(c.tail) < L {
		c.tail = make([]tailPos, L)
	}
	tail := c.tail[:L]
	rank := int32(f)
	for j := range tail {
		tp := &tail[j]
		*tp = tailPos{over: -1, aOver: -1}
		if c.committed(f + j) {
			tp.kept, tp.rank = true, rank
			seqs[rank] = c.recs[f+j].seq
			rank++
		}
	}
	removed := func(q int32) bool { return int(q) >= f && !tail[int(q)-f].kept }
	// next follows an overwrite chain past removed definitions; resolve
	// follows a producer link back past them.
	next := func(o int32) int32 {
		for o >= 0 && removed(o) {
			o = du.overwrite[o]
		}
		return o
	}
	resolve := func(q int32) int32 {
		for q >= 0 && removed(q) {
			q = du.prev[q]
		}
		return q
	}
	// returnIn reports whether a kept tail position in [from, to] has a
	// clamped call depth below d: a return past the definition's frame.
	returnIn := func(from, to, d int) bool {
		for t := from; t <= to; t++ {
			if tail[t-f].kept && clampDepth(&log[t]) < d {
				return true
			}
		}
		return false
	}
	for j := range tail {
		t := int32(f + j)
		if tail[j].kept {
			tail[j].over = next(du.overwrite[t])
		}
		if p := du.prev[t]; p >= 0 && int(p) < f {
			tail[j].aOver = next(t)
		}
	}

	// The tail, in descending order: every consumer of a tail definition
	// is later in the tail, so its summary is complete when it is reached.
	cats := make([]Category, c.commits)
	for j := L - 1; j >= 0; j-- {
		tp := &tail[j]
		if !tp.kept {
			continue
		}
		t := f + j
		in := &log[t]
		over := tp.over >= 0
		rd := over && !tp.use.any && in.HasDest() && returnIn(t+1, int(tp.over), clampDepth(in))
		cat := categorize(in, over, rd, tp.use)
		cats[tp.rank] = cat
		for _, q := range du.prod[t] {
			switch q = resolve(q); {
			case q < 0:
			case int(q) >= f:
				tail[int(q)-f].use.add(cat)
			case du.overwrite[q] >= 0:
				// A definition live across f: its prefix overwrite is in
				// the tail, which keys its slot.
				tail[int(du.overwrite[q])-f].aUse.add(cat)
			}
		}
	}

	// The prefix below f: start from the shared categories and re-classify
	// the definitions live across f, then whatever their changes reach.
	for i := range f {
		seqs[i] = c.recs[i].seq
	}
	copy(cats, a.dead.cats[:f])
	nw := (f + 63) / 64
	if cap(c.pend) < nw {
		c.pend = make([]uint64, nw)
	}
	pend := c.pend[:nw]
	clear(pend)
	for j := range tail {
		if p := du.prev[f+j]; p >= 0 && int(p) < f {
			pend[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	for w := nw - 1; w >= 0; w-- {
		for pend[w] != 0 {
			b := 63 - bits.LeadingZeros64(pend[w])
			pend[w] &^= 1 << uint(b)
			p := w<<6 | b
			in := &log[p]
			var u useSummary
			for _, ci := range du.cons[du.consOff[p]:du.consOff[p+1]] {
				if int(ci) < f {
					u.add(cats[ci])
				}
			}
			over, rd := du.overwrite[p] >= 0, du.retDead[p]
			if o := int(du.overwrite[p]); o >= f {
				tp := &tail[o-f]
				u.merge(tp.aUse)
				over = tp.aOver >= 0
				// Positions up to f are all kept, so the prefix's first
				// lower-depth position decides when it lies before f.
				fb := a.below[p]
				rd = over && !u.any && in.HasDest() &&
					(fb >= 0 && int(fb) < f || returnIn(f, int(tp.aOver), clampDepth(in)))
			}
			old := cats[p]
			cats[p] = categorize(in, over, rd, u)
			if useStatus(cats[p]) != useStatus(old) {
				for _, q := range du.prod[p] {
					if q >= 0 {
						pend[q>>6] |= 1 << (uint(q) & 63)
					}
				}
			}
		}
	}

	// Counts and the FDD distance lists, in the lane's log coordinates.
	d := &Deadness{seqs: seqs, cats: cats}
	for _, cat := range cats {
		d.Counts[cat]++
	}
	for _, cat := range [...]Category{CatFDDReg, CatFDDRet, CatFDDMem} {
		if k := d.Counts[cat]; k > 0 {
			*d.fddList(cat) = make([]int, 0, k)
		}
	}
	laneIdx := func(o int32) int {
		if int(o) < f {
			return int(o)
		}
		return int(tail[int(o)-f].rank)
	}
	for i, cat := range cats[:f] {
		if l := d.fddList(cat); l != nil {
			o := du.overwrite[i]
			if int(o) >= f {
				o = tail[int(o)-f].aOver
			}
			*l = append(*l, laneIdx(o)-i)
		}
	}
	for j := range tail {
		if tp := &tail[j]; tp.kept {
			if l := d.fddList(cats[tp.rank]); l != nil {
				*l = append(*l, laneIdx(tp.over)-int(tp.rank))
			}
		}
	}
	return d, f
}
