package pipeline

import (
	"sort"

	"softerror/internal/isa"
)

// Stats holds the scalar counters of one run — everything a Trace records
// besides its interval slices. RunStream and the batch runners return it so
// callers get IPC, miss rates and event counts without a Trace.
type Stats struct {
	Cycles  uint64
	Commits uint64
	MaxSeq  uint64

	Squashes        uint64
	SquashedEntries uint64
	Refetches       uint64
	ThrottleEvents  uint64
	WrongFlushes    uint64
	ForwardedLoads  uint64

	LoadsByLevel [4]uint64

	FetchStallCycles uint64

	// TAGEReadCycles integrates the out-of-order family's predictor-table
	// read exposure: entry-cycles since last read, summed over every
	// lookup (0 for the in-order family).
	TAGEReadCycles uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Commits) / float64(s.Cycles)
}

// LoadMissRate returns the fraction of loads serviced beyond the given
// cache level.
func (s *Stats) LoadMissRate(level int) float64 {
	var total, beyond uint64
	for l, n := range s.LoadsByLevel {
		total += n
		if l > level {
			beyond += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(beyond) / float64(total)
}

// TraceRecorder materialises one run's event stream into a Trace. It is
// the only recorder of intervals: the reference interpreter calls it as
// each interval closes (RunStream), and a production lane feeds it through
// Beside, in the same order with the same contents — so both engines'
// traces are comparable byte for byte. Fault injection, tracefile,
// traceview and the differential and conservation checks read its Trace.
type TraceRecorder struct {
	outOfOrder bool
	tr         Trace
}

// NewTraceRecorder builds a recorder for a run under cfg. commits pre-sizes
// the commit log (pass 0 when unknown).
func NewTraceRecorder(cfg Config, commits uint64) *TraceRecorder {
	rec := &TraceRecorder{outOfOrder: cfg.OutOfOrder}
	rec.tr.IQSize = cfg.IQSize
	rec.tr.FrontEndCap = cfg.FrontEndCap()
	rec.tr.StoreBufferCap = cfg.StoreBufferSize
	if cfg.OutOfOrder {
		n := cfg.Normalized()
		rec.tr.ROBCap = n.ROBSize
		rec.tr.LSQCap = n.LSQSize
		rec.tr.TAGETables = n.TAGETables
		rec.tr.TAGETableEntries = 1 << n.TAGETableBits
	}
	if commits > 0 {
		rec.tr.CommitLog = make([]isa.Inst, 0, commits)
		rec.tr.CommitCycles = make([]uint64, 0, commits)
	}
	return rec
}

// onResidency records one closed instruction-queue interval (eviction,
// squash, wrong-path flush, or end-of-run clip).
func (rec *TraceRecorder) onResidency(r Residency) {
	rec.tr.Residencies = append(rec.tr.Residencies, r)
}

// onFrontEnd records one closed fetch-buffer interval: Issued marks
// delivery to decode (the front end's read point), Squashed removal
// without delivery.
func (rec *TraceRecorder) onFrontEnd(r Residency) {
	rec.tr.FrontEnd = append(rec.tr.FrontEnd, r)
}

// onStoreBuffer records one closed store-buffer interval (drain to
// cache, or end-of-run clip).
func (rec *TraceRecorder) onStoreBuffer(r Residency) {
	rec.tr.StoreBuffer = append(rec.tr.StoreBuffer, r)
}

// onCommit records one committed (issued correct-path) instruction and the
// cycle it issued.
func (rec *TraceRecorder) onCommit(in isa.Inst, issue uint64) {
	rec.tr.CommitLog = append(rec.tr.CommitLog, in)
	rec.tr.CommitCycles = append(rec.tr.CommitCycles, issue)
}

// onROB records one closed reorder-buffer interval. The out-of-order
// structures' intervals carry their own read point — a ROB entry is read
// at its in-order retire, an LSQ entry at its retire (loads,
// predicated-false stores) or its drain (executed stores) — so Issue ==
// Evict for every read interval, and Issued=false marks copies flushed,
// squashed or clipped without a read.
func (rec *TraceRecorder) onROB(r Residency) {
	rec.tr.ROB = append(rec.tr.ROB, r)
}

// onLSQ records one closed load/store-queue interval.
func (rec *TraceRecorder) onLSQ(r Residency) {
	rec.tr.LSQ = append(rec.tr.LSQ, r)
}

// Trace finalises and returns the materialised trace: counters copied from
// the run's Stats, and — under out-of-order issue, which appends commits in
// dataflow order — the commit log restored to program order, which the
// unique sequence numbers make exact.
func (rec *TraceRecorder) Trace(st Stats) *Trace {
	tr := &rec.tr
	tr.Cycles = st.Cycles
	tr.Commits = st.Commits
	tr.MaxSeq = st.MaxSeq
	tr.Squashes = st.Squashes
	tr.SquashedEntries = st.SquashedEntries
	tr.Refetches = st.Refetches
	tr.ThrottleEvents = st.ThrottleEvents
	tr.WrongFlushes = st.WrongFlushes
	tr.ForwardedLoads = st.ForwardedLoads
	tr.LoadsByLevel = st.LoadsByLevel
	tr.FetchStallCycles = st.FetchStallCycles
	tr.TAGEReadCycles = st.TAGEReadCycles
	if rec.outOfOrder {
		log, cycles := tr.CommitLog, tr.CommitCycles
		order := make([]int, len(log))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return log[order[a]].Seq < log[order[b]].Seq })
		sortedLog := make([]isa.Inst, len(log))
		sortedCycles := make([]uint64, len(cycles))
		for i, j := range order {
			sortedLog[i] = log[j]
			sortedCycles[i] = cycles[j]
		}
		tr.CommitLog, tr.CommitCycles = sortedLog, sortedCycles
	}
	return tr
}
