package ace

import (
	"slices"
	"sort"

	"softerror/internal/isa"
)

// Deadness is the result of dynamic dead-code discovery over a committed
// instruction stream. It classifies every committed instruction into a
// Category and records, for first-level dead instructions, the commit
// distance from definition to overwrite — the quantity that determines
// whether a PET buffer of a given size can prove the instruction dead.
type Deadness struct {
	// seqs and cats are the per-instruction classification as parallel
	// slices sorted by dynamic sequence number (unique per committed
	// instruction); sequence numbers not present (e.g. wrong-path) are
	// not stored. Two packed slices replace the former seq→category map:
	// half the memory and a branch-free binary-search lookup.
	seqs []uint64
	cats []Category

	// Counts tallies committed instructions per category.
	Counts [NumCategories]uint64

	// FDDRegDist holds, for each CatFDDReg instruction, the number of
	// commits between it and the overwriting instruction. FDDRetDist and
	// FDDMemDist hold the same for return-dead writes and dead stores.
	FDDRegDist []int
	FDDRetDist []int
	FDDMemDist []int
}

// maxTrackedDepth bounds the call-depth bookkeeping for return-dead
// detection; deeper nesting is clamped (a safe, conservative choice).
const maxTrackedDepth = 64

// clampDepth is an instruction's call depth as the analysis tracks it.
func clampDepth(in *isa.Inst) int {
	return min(int(in.CallDepth), maxTrackedDepth)
}

// defUse is the def-use structure of one commit log, stored as flat index
// arrays over log positions instead of a consumer slice per definition: a
// handful of allocations per analysis however long the log. A definition
// is a committed register write or store (stores carry no destination
// register, so the two kinds never share a position).
type defUse struct {
	// overwrite[i] is the position of the next write of definition i's
	// register (or the next store to its address); -1 when none follows.
	// prev is the inverse link: prev[o] is the definition o overwrote.
	overwrite []int32
	prev      []int32
	// retDead[i] reports that a return below i's call depth happened
	// after i and no later than its overwrite.
	retDead []bool
	// prod[i] links position i to the definitions it reads: the reaching
	// definitions of its guard, src1 and src2 registers and, for a load,
	// the store it reads; -1 marks an absent link.
	prod [][4]int32
	// The consumers of definition i are cons[consOff[i]:consOff[i+1]], in
	// log order: the inverse of prod, one CSR offsets array plus one
	// consumers array.
	consOff []int32
	cons    []int32
}

// buildDefUse runs the forward pass of the deadness analysis over log.
func buildDefUse(log []isa.Inst) *defUse {
	n := len(log)
	du := &defUse{
		overwrite: make([]int32, n),
		prev:      make([]int32, n),
		retDead:   make([]bool, n),
		prod:      make([][4]int32, n),
		consOff:   make([]int32, n+1),
	}
	if n == 0 {
		return du
	}

	// regDef[r] is the log index of the live definition of register r, or
	// -1. Memory def-use is per 8-byte-aligned address: each store's
	// consumers are the loads reading its address before the next store;
	// the next store is its overwriter.
	var regDef [isa.NumRegs]int32
	for i := range regDef {
		regDef[i] = -1
	}
	storeAt := make(map[uint64]int32) // addr -> pending store log index
	reach := func(r isa.Reg) int32 {
		if r == isa.RegNone {
			return -1
		}
		return regDef[r]
	}

	// lastBelow[d] is the most recent log index at which the call depth
	// was strictly below d; used to detect return-dead overwrites.
	var lastBelow [maxTrackedDepth + 2]int32
	for i := range lastBelow {
		lastBelow[i] = -1
	}
	prevDepth := int(log[0].CallDepth)

	for i := range log {
		in := &log[i]
		idx := int32(i)
		du.overwrite[i], du.prev[i] = -1, -1

		// Maintain return timestamps.
		depth := clampDepth(in)
		if depth < prevDepth {
			for dd := depth + 1; dd <= prevDepth && dd < len(lastBelow); dd++ {
				lastBelow[dd] = idx
			}
		}
		prevDepth = depth

		// Uses. Predicated-false instructions read only their guard;
		// neutral instructions read nothing that matters.
		p := &du.prod[i]
		*p = [4]int32{-1, -1, -1, -1}
		if !in.Class.Neutral() {
			p[0] = reach(in.PredGuard)
			if !in.PredFalse {
				p[1] = reach(in.Src1)
				p[2] = reach(in.Src2)
			}
		}

		// Memory effects.
		switch {
		case in.Class == isa.ClassLoad && !in.PredFalse:
			if si, ok := storeAt[in.Addr]; ok {
				p[3] = si
			}
		case in.Class == isa.ClassStore && !in.PredFalse:
			if prev, ok := storeAt[in.Addr]; ok {
				du.overwrite[prev] = idx
				du.prev[i] = prev
			}
			storeAt[in.Addr] = idx
		}

		for _, q := range p {
			if q >= 0 {
				du.consOff[q+1]++ // consumer count, turned into offsets below
			}
		}

		// Defs: close the previous definition of Dest.
		if in.HasDest() {
			r := in.Dest
			if prev := regDef[r]; prev >= 0 {
				du.overwrite[prev] = idx
				du.prev[i] = prev
				du.retDead[prev] = lastBelow[clampDepth(&log[prev])] > prev
			}
			regDef[r] = idx
		}
	}

	// Invert prod into the CSR consumer lists: the forward pass counted
	// each definition's consumers; place them, using consOff[q] as q's fill
	// cursor and shifting the offsets back into place afterwards.
	for i := 1; i <= n; i++ {
		du.consOff[i] += du.consOff[i-1]
	}
	du.cons = make([]int32, du.consOff[n])
	for i := range du.prod {
		for _, q := range du.prod[i] {
			if q >= 0 {
				du.cons[du.consOff[q]] = int32(i)
				du.consOff[q]++
			}
		}
	}
	copy(du.consOff[1:], du.consOff[:n])
	du.consOff[0] = 0
	return du
}

// AnalyzeDeadness discovers dynamically dead instructions in a committed
// instruction log (program order). The classification follows §4.1 of the
// paper:
//
//   - a register write overwritten before any read is first-level dead
//     (FDD), attributed to a procedure return when one intervened;
//   - a register write whose every reader is itself dead is transitively
//     dead (TDD);
//   - a store whose memory value is overwritten before any load is dead,
//     tracked via memory; instructions feeding only dead stores are TDD
//     tracked via memory;
//   - values never overwritten by the end of the log are conservatively
//     live, as are stores never overwritten (matching the PET buffer's
//     "absence of an overwriting instruction" rule).
//
// Reads by neutral instructions (no-ops, prefetches, hints) and by
// predicated-false instructions do not make a value live: those readers
// cannot affect the program's outcome.
func AnalyzeDeadness(log []isa.Inst) *Deadness {
	return buildDefUse(log).deadness(log)
}

// deadness runs the reverse (classification) pass over the def-use arrays
// and assembles the result.
func (du *defUse) deadness(log []isa.Inst) *Deadness {
	d := &Deadness{}
	if len(log) == 0 {
		return d
	}
	d.seqs = make([]uint64, 0, len(log))
	d.cats = make([]Category, 0, len(log))

	// Reverse pass: consumers are later in the log, so their categories
	// are known when the producer is classified.
	cats := make([]Category, len(log))
	for i := len(log) - 1; i >= 0; i-- {
		var u useSummary
		for _, ci := range du.cons[du.consOff[i]:du.consOff[i+1]] {
			u.add(cats[ci])
		}
		cats[i] = categorize(&log[i], du.overwrite[i] >= 0, du.retDead[i], u)
	}

	sorted := true
	for i := range log {
		in := &log[i]
		c := cats[i]
		if i > 0 && in.Seq < d.seqs[len(d.seqs)-1] {
			sorted = false
		}
		d.seqs = append(d.seqs, in.Seq)
		d.cats = append(d.cats, c)
		d.Counts[c]++
		switch c {
		case CatFDDReg:
			d.FDDRegDist = append(d.FDDRegDist, int(du.overwrite[i])-i)
		case CatFDDRet:
			d.FDDRetDist = append(d.FDDRetDist, int(du.overwrite[i])-i)
		case CatFDDMem:
			d.FDDMemDist = append(d.FDDMemDist, int(du.overwrite[i])-i)
		}
	}
	if !sorted {
		// A program-order commit log has ascending sequence numbers, so
		// this is a defensive path for hand-built logs only.
		order := make([]int, len(d.seqs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return d.seqs[order[a]] < d.seqs[order[b]] })
		seqs := make([]uint64, len(d.seqs))
		cs := make([]Category, len(d.cats))
		for i, j := range order {
			seqs[i] = d.seqs[j]
			cs[i] = d.cats[j]
		}
		d.seqs, d.cats = seqs, cs
	}
	return d
}

// useSummary folds a definition's consumers into the three facts its
// classification reads: whether any exist, whether any is live, and
// whether any is dead via memory.
type useSummary struct {
	any, live, mem bool
}

func (u *useSummary) add(c Category) {
	u.any = true
	u.live = u.live || !c.Dead()
	u.mem = u.mem || c == CatFDDMem || c == CatTDDMem
}

func (u *useSummary) merge(v useSummary) {
	u.any = u.any || v.any
	u.live = u.live || v.live
	u.mem = u.mem || v.mem
}

// useStatus is the part of a category its producers' classification
// depends on: dead or live, and dead via memory or not.
func useStatus(c Category) [2]bool {
	return [2]bool{c.Dead(), c == CatFDDMem || c == CatTDDMem}
}

// categorize assigns the category for one committed instruction from its
// def-use facts: whether it is overwritten within the log, whether a
// return below its depth intervened before that overwrite, and the summary
// of its (already classified) consumers.
func categorize(in *isa.Inst, overwritten, retDead bool, u useSummary) Category {
	switch {
	case in.WrongPath:
		return CatWrongPath
	case in.PredFalse:
		return CatPredFalse
	case in.Class.Neutral():
		return CatNeutral
	case in.Class == isa.ClassStore:
		switch {
		case !overwritten:
			return CatACE // never overwritten: conservatively live
		case !u.any:
			return CatFDDMem // overwritten before any load
		case u.live:
			return CatACE // a live load consumed the value
		}
		return CatTDDMem // read only by dead loads
	case in.HasDest():
		switch {
		case !overwritten:
			return CatACE // live-out: conservatively live
		case !u.any && retDead:
			return CatFDDRet
		case !u.any:
			return CatFDDReg
		case u.live:
			return CatACE // at least one live reader
		case u.mem:
			return CatTDDMem
		}
		return CatTDDReg
	default:
		// Branches, calls, returns, I/O, destination-less instructions.
		return CatACE
	}
}

// fddList returns the distance list a first-level-dead category records
// into, or nil for any other category.
func (d *Deadness) fddList(c Category) *[]int {
	switch c {
	case CatFDDReg:
		return &d.FDDRegDist
	case CatFDDRet:
		return &d.FDDRetDist
	case CatFDDMem:
		return &d.FDDMemDist
	}
	return nil
}

// Of returns the category recorded for the given dynamic instruction.
// Wrong-path instructions (never committed) classify as CatWrongPath;
// committed instructions missing from the log (e.g. past its end) are
// conservatively CatACE.
func (d *Deadness) Of(in *isa.Inst) Category {
	if in.WrongPath {
		return CatWrongPath
	}
	return d.OfSeq(in.Seq)
}

// OfSeq returns the category recorded for the given committed sequence
// number; sequence numbers not in the analysed log are conservatively
// CatACE. Wrong-path instructions have no committed entry — callers
// holding an Inst should use Of, which classifies them first.
func (d *Deadness) OfSeq(seq uint64) Category {
	if i, ok := slices.BinarySearch(d.seqs, seq); ok {
		return d.cats[i]
	}
	return CatACE
}

// Compact releases the per-instruction classification, keeping only the
// aggregate counts and FDD distance populations. After Compact, Of and
// OfSeq answer conservatively (CatACE) for committed instructions. Use it
// when memoising many analyses whose per-instruction detail is no longer
// needed.
func (d *Deadness) Compact() { d.seqs, d.cats = nil, nil }

// Committed returns the number of classified committed instructions.
func (d *Deadness) Committed() uint64 {
	var n uint64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// DeadFraction returns the fraction of committed instructions that are
// dynamically dead (any dead category); the paper reports ~20% across its
// binaries.
func (d *Deadness) DeadFraction() float64 {
	total := d.Committed()
	if total == 0 {
		return 0
	}
	dead := d.Counts[CatFDDReg] + d.Counts[CatFDDRet] + d.Counts[CatTDDReg] +
		d.Counts[CatFDDMem] + d.Counts[CatTDDMem]
	return float64(dead) / float64(total)
}

// PETCoverage returns the fraction of a dead population (given as def-to-
// overwrite distances) provable by a PET buffer with the given number of
// entries: exactly those whose overwrite lands within the buffer window.
func PETCoverage(distances []int, entries int) float64 {
	if len(distances) == 0 {
		return 0
	}
	covered := 0
	for _, dist := range distances {
		if dist <= entries {
			covered++
		}
	}
	return float64(covered) / float64(len(distances))
}
