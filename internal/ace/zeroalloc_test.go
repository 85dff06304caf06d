//go:build !race

// Race instrumentation allocates on its own; the allocation budgets here
// only hold in plain builds.

package ace

import (
	"math/rand"
	"testing"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// TestBatchCollectorEventPathZeroAlloc pins the arena property on the
// collector: once a BatchCollector has been through one Reset/feed cycle,
// further cycles — Reset included — allocate nothing. Every event record
// lands in storage retained across Reset, so a sweep reusing pooled
// collectors pays the collector's allocations once per pool slot, not once
// per grid cell.
func TestBatchCollectorEventPathZeroAlloc(t *testing.T) {
	const commits = 2000
	src := &sliceSource{body: make([]isa.Inst, commits+16)}
	for i := range src.body {
		src.body[i] = isa.Inst{Seq: uint64(i), Dest: isa.Reg(1 + i%8), Class: isa.ClassALU}
	}
	group := NewBatchGroup(src)
	cfg := StructureConfig(pipeline.DefaultConfig(), commits)
	cfg.FrontEnd = true
	cfg.StoreBuffer = true

	coll, err := NewBatchCollector(cfg, group)
	if err != nil {
		t.Fatal(err)
	}
	feed := func() {
		if err := coll.Reset(cfg, group); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < commits; n++ {
			ref := pipeline.BatchRef(n) // correct-path ref for body cursor n
			seq := uint64(n)
			enq := 2 * seq
			coll.BatchCommit(ref, seq, enq, enq+1)
			coll.BatchResidency(ref, seq, enq, enq+1, enq+3, true, false)
			coll.BatchFrontEnd(ref, seq, enq, enq+1, true)
			coll.BatchStoreBuffer(ref, seq, enq, enq+4)
		}
	}
	feed() // warm the record arrays and pending lists to their high-water marks

	if avg := testing.AllocsPerRun(10, feed); avg != 0 {
		t.Fatalf("warm collector event cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestBatchFinishHoledAllocsConstant pins the tail patch's allocation
// profile: a warm, pooled collector's Finish on a holed out-of-order lane
// allocates only what it returns — the reports, the lane's seqs and
// categories and its FDD lists — so the count is the same small constant
// at 5k and at 50k commits. A per-lane re-analysis, a sub-log copy or
// growth-by-append anywhere in Finish would make it scale with the log.
func TestBatchFinishHoledAllocsConstant(t *testing.T) {
	allocs := func(commits int) float64 {
		src := &sliceSource{body: randomLog(rand.New(rand.NewSource(3)), commits+64)}
		group := NewBatchGroup(src)
		pcfg := pipeline.DefaultConfig()
		pcfg.OutOfOrder = true
		cfg := StructureConfig(pcfg, uint64(commits))
		cfg.FrontEnd, cfg.StoreBuffer = true, true
		coll, err := NewBatchCollector(cfg, group)
		if err != nil {
			t.Fatal(err)
		}
		n := commits + 24
		lane := func() {
			if err := coll.Reset(cfg, group); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				ref := pipeline.BatchRef(i)
				seq := uint64(i)
				coll.BatchFrontEnd(ref, seq, seq, seq+2, true)
				coll.BatchROB(ref, seq, seq+1, seq+9, true)
				coll.BatchLSQ(ref, seq, seq+1, seq+5, true)
				coll.BatchStoreBuffer(ref, seq, seq+9, seq+12)
				if i < n-30 || i%3 != 0 || i == n-1 {
					coll.BatchCommit(ref, seq, seq+1, seq+3)
					coll.BatchResidency(ref, seq, seq+1, seq+3, seq+5, true, false)
				}
			}
			coll.Finish(uint64(4 * n))
		}
		lane() // warm: the group's analysis and the patch's scratch
		return testing.AllocsPerRun(5, lane)
	}
	small, large := allocs(5_000), allocs(50_000)
	t.Logf("holed-lane Finish: %.0f allocations at 5k and at 50k commits", large)
	if small != large || large > 16 {
		t.Fatalf("holed-lane Finish allocates %.0f times at 5k commits and %.0f at 50k, want the same constant <= 16", small, large)
	}
}
