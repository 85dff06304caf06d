package ace

import (
	"math/rand"
	"reflect"
	"testing"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// sliceSource is a canned BatchSource over pre-built streams.
type sliceSource struct{ body, wrong []isa.Inst }

func (s *sliceSource) Body(n int) *isa.Inst  { return &s.body[n] }
func (s *sliceSource) Wrong(j int) *isa.Inst { return &s.wrong[j] }

// randomLog draws a committed log dense in def-use interactions: few
// registers and addresses, loads, stores, calls and returns (starting near
// the tracked-depth clamp), predicated-false and neutral instructions.
func randomLog(r *rand.Rand, n int) []isa.Inst {
	regs := []isa.Reg{isa.IntReg(1), isa.IntReg(2), isa.IntReg(3), isa.IntReg(4), isa.IntReg(5)}
	reg := func() isa.Reg { return regs[r.Intn(len(regs))] }
	src := func() isa.Reg {
		if r.Intn(4) == 0 {
			return isa.RegNone
		}
		return reg()
	}
	depth := uint8(maxTrackedDepth - 2 + r.Intn(4))
	log := make([]isa.Inst, n)
	for i := range log {
		in := isa.Inst{Seq: uint64(i), Dest: isa.RegNone, Src1: src(), Src2: src(), PredGuard: isa.RegNone}
		addr := uint64(r.Intn(4)) * 8
		switch k := r.Intn(20); {
		case k < 8:
			in.Class, in.Dest = isa.ClassALU, reg()
		case k < 11:
			in.Class, in.Dest, in.Addr = isa.ClassLoad, reg(), addr
		case k < 14:
			in.Class, in.Addr = isa.ClassStore, addr
		case k < 15:
			in.Class = isa.ClassNop
		case k < 16:
			in.Class, in.Addr = isa.ClassPrefetch, addr
		case k < 17:
			in.Class = isa.ClassBranch
		case k < 18:
			in.Class = isa.ClassCall
		default:
			in.Class = isa.ClassReturn
		}
		if in.Class != isa.ClassCall && in.Class != isa.ClassReturn && r.Intn(6) == 0 {
			in.PredGuard = isa.IntReg(6)
			in.PredFalse = r.Intn(2) == 0
		}
		if r.Intn(40) == 0 {
			in.Class, in.Dest, in.PredGuard, in.PredFalse = isa.ClassALU, isa.IntReg(6), isa.RegNone, false
		}
		if in.Class == isa.ClassReturn && depth > 0 {
			depth--
		}
		in.CallDepth = depth
		if in.Class == isa.ClassCall {
			depth++
		}
		log[i] = in
	}
	return log
}

// patchAgainstOracle commits the lane's set (every position of [0, n)
// except holes) into a collector, patches the group's analysis of
// [0, m), and compares the result with AnalyzeDeadness on the exact
// sub-log, relabeled into lane coordinates.
func patchAgainstOracle(t *testing.T, log []isa.Inst, m, n int, holes map[int]bool) {
	t.Helper()
	g := NewBatchGroup(&sliceSource{body: log})
	c, err := NewBatchCollector(CollectorConfig{Commits: uint64(n)}, g)
	if err != nil {
		t.Fatal(err)
	}
	var sub []isa.Inst
	for i := 0; i < n; i++ {
		if holes[i] {
			continue
		}
		seq := uint64(1000 + 3*i)
		c.BatchCommit(pipeline.BatchRef(i), seq, 0, 0)
		in := log[i]
		in.Seq = seq
		sub = append(sub, in)
	}
	got, _ := c.patch(g.analysis(m))
	want := AnalyzeDeadness(sub)
	if !reflect.DeepEqual(got, want) {
		for i := range want.cats {
			if got.cats[i] != want.cats[i] {
				t.Errorf("sub-log position %d: patched %v, oracle %v", i, got.cats[i], want.cats[i])
			}
		}
		t.Fatalf("m=%d n=%d holes=%v: patched deadness differs from the oracle\n got Counts %v FDD %v %v %v\nwant Counts %v FDD %v %v %v",
			m, n, holes, got.Counts, got.FDDRegDist, got.FDDRetDist, got.FDDMemDist,
			want.Counts, want.FDDRegDist, want.FDDRetDist, want.FDDMemDist)
	}
}

// TestPatchMatchesAnalyzeDeadness is the tail patch's differential check:
// random logs, random holes in the last W committed positions plus a
// random uncommitted suffix, patched deadness ≡ the oracle on the exact
// sub-log (seqs, cats, Counts, all three FDD lists).
func TestPatchMatchesAnalyzeDeadness(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		m := 1 + r.Intn(300)
		log := randomLog(r, m)
		n := m - r.Intn(min(m, 12))
		w := 1 + r.Intn(40)
		holes := make(map[int]bool)
		for k := r.Intn(w); k > 0; k-- {
			if h := n - 1 - r.Intn(min(w, n)); h < n-1 {
				holes[h] = true
			}
		}
		patchAgainstOracle(t, log, m, n, holes)
	}
}

// TestPatchFlipsTDDChainToACE: a long transitively dead chain hangs off one
// final overwrite; when that overwrite is a hole the chain's last value is
// live-out, and every link must flip back to ACE.
func TestPatchFlipsTDDChainToACE(t *testing.T) {
	b := &logBuilder{}
	a, c := isa.IntReg(1), isa.IntReg(2)
	b.alu(a, isa.RegNone, isa.RegNone)
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			b.alu(c, a, isa.RegNone)
		} else {
			b.alu(a, c, isa.RegNone)
		}
	}
	// The chain's last write is to a (200 links: a, c, a, ... ends on a).
	b.alu(c, isa.RegNone, isa.RegNone) // kills the second-to-last link's register
	hole := b.alu(a, isa.RegNone, isa.RegNone)
	b.nop()
	log := b.log

	full := AnalyzeDeadness(log)
	if got := full.cats[100]; got != CatTDDReg {
		t.Fatalf("mid-chain link in the full log is %v, want tdd-reg", got)
	}
	patchAgainstOracle(t, log, len(log), len(log), map[int]bool{hole: true})

	g := NewBatchGroup(&sliceSource{body: log})
	coll, err := NewBatchCollector(CollectorConfig{Commits: uint64(len(log))}, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range log {
		if i != hole {
			coll.BatchCommit(pipeline.BatchRef(i), uint64(i), 0, 0)
		}
	}
	d, _ := coll.patch(g.analysis(len(log)))
	for i := 0; i <= 200; i++ {
		if d.cats[i] != CatACE {
			t.Fatalf("chain link %d is %v after its live-out hole, want ace", i, d.cats[i])
		}
	}
}

// TestBatchGroupOneAnalysisPerBatch: lanes of one batch that end at
// different lengths, holed or dense, share a single prefix analysis.
func TestBatchGroupOneAnalysisPerBatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	log := randomLog(r, 600)
	g := NewBatchGroup(&sliceSource{body: log})
	ends := []int{560, 575, 590, 574}
	colls := make([]*BatchCollector, len(ends))
	for k := range colls {
		var err error
		if colls[k], err = NewBatchCollector(CollectorConfig{IQSize: 8, Commits: 550}, g); err != nil {
			t.Fatal(err)
		}
	}
	for k, n := range ends {
		for i := 0; i < n; i++ {
			if k%2 == 1 && i >= n-20 && i%3 == 0 {
				continue // holes in the odd lanes' tails
			}
			colls[k].BatchCommit(pipeline.BatchRef(i), uint64(i), 0, 1)
		}
	}
	colls[0].Finish(10_000)
	first := g.memo
	for _, c := range colls[1:] {
		c.Finish(10_000)
	}
	if g.memo != first || first.m != 590 {
		t.Fatal("the batch's lanes did not share one analysis of the longest prefix")
	}
}
