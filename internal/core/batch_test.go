package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// TestRunBatchMatchesIndependentRuns pins the tentpole identity end to
// end: a batched evaluation's Results — IPC, stats, IQ/front-end/store-
// buffer reports, deadness — equal K independent RunContext runs exactly.
func TestRunBatchMatchesIndependentRuns(t *testing.T) {
	b, ok := spec.ByName("mcf")
	if !ok {
		t.Fatal("mcf not in roster")
	}
	const commits = 15_000

	var specs []BatchSpec
	for _, pol := range []Policy{PolicyBaseline, PolicySquashL1, PolicySquashL0, PolicyThrottleL0} {
		cfg := pipeline.DefaultConfig()
		pol.Apply(&cfg)
		specs = append(specs, BatchSpec{Pipeline: cfg, FrontEnd: true, StoreBuffer: true})
	}
	narrow := pipeline.DefaultConfig()
	narrow.IQSize = 16
	narrow.StoreBufferSize = 4
	specs = append(specs, BatchSpec{Pipeline: narrow})

	batched, err := RunBatchContext(context.Background(), b.Params, commits, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		solo, err := RunContext(context.Background(), Config{
			Workload:    b.Params,
			Pipeline:    sp.Pipeline,
			Commits:     commits,
			FrontEnd:    sp.FrontEnd,
			StoreBuffer: sp.StoreBuffer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo, batched[i]) {
			t.Fatalf("lane %d diverges from solo run:\n solo    IPC=%.6f SDC=%.6f cycles=%d\n batched IPC=%.6f SDC=%.6f cycles=%d",
				i, solo.IPC, solo.Report.SDCAVF(), solo.Cycles,
				batched[i].IPC, batched[i].Report.SDCAVF(), batched[i].Cycles)
		}
	}
}

// TestRunBatchUnshareableFallsThrough pins the typed fallback: a workload
// with a PC-indexed predictor reports ErrUnshareable so callers can route
// each spec through the solo path.
func TestRunBatchUnshareableFallsThrough(t *testing.T) {
	p := workload.Default()
	p.BranchPredictor = "gshare"
	_, err := RunBatchContext(context.Background(), p, 1000,
		[]BatchSpec{{Pipeline: pipeline.DefaultConfig()}})
	if !errors.Is(err, workload.ErrUnshareable) {
		t.Fatalf("gshare batch = %v, want ErrUnshareable", err)
	}
}

// holeSink records which body positions a lane committed, to tell holed
// lanes (younger bodies committed while older ones are still in flight at
// run end) from dense ones.
type holeSink struct{ end, commits int }

func (h *holeSink) BatchCommit(ref pipeline.BatchRef, seq, enq, issue uint64) {
	h.commits++
	h.end = max(h.end, ref.Body()+1)
}
func (h *holeSink) BatchResidency(pipeline.BatchRef, uint64, uint64, uint64, uint64, bool, bool) {}
func (h *holeSink) BatchFrontEnd(pipeline.BatchRef, uint64, uint64, uint64, bool)                {}
func (h *holeSink) BatchStoreBuffer(pipeline.BatchRef, uint64, uint64, uint64)                   {}

// TestRunBatchHoledOOOMatchesSolo pins the tail patch end to end: in a
// small-commit out-of-order batch with at least one holed lane, every
// lane's Result equals a solo run.
func TestRunBatchHoledOOOMatchesSolo(t *testing.T) {
	b, ok := spec.ByName("bzip2-source")
	if !ok {
		t.Fatal("bzip2-source not in roster")
	}
	const commits = 3_000
	var specs []BatchSpec
	for i, pol := range []Policy{PolicyBaseline, PolicySquashL1, PolicySquashL0, PolicyThrottleL0} {
		cfg := pipeline.DefaultConfig()
		cfg.OutOfOrder = true
		pol.Apply(&cfg)
		specs = append(specs, BatchSpec{Pipeline: cfg, FrontEnd: i%2 == 0, StoreBuffer: true})
	}

	// The lanes are deterministic, so a recording pass over the same
	// stream shows which of them end holed.
	sh, err := workload.NewShared(b.Params)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]pipeline.Config, len(specs))
	mems := make([]*cache.Hierarchy, len(specs))
	sinks := make([]pipeline.BatchSink, len(specs))
	holes := make([]*holeSink, len(specs))
	for i, sp := range specs {
		cfgs[i], mems[i] = sp.Pipeline, workload.WarmedDefault()
		holes[i] = &holeSink{}
		sinks[i] = holes[i]
	}
	if _, err := pipeline.RunBatchStreamArena(context.Background(), commits, sh, cfgs, mems, sinks, nil); err != nil {
		t.Fatal(err)
	}
	holed := 0
	for _, h := range holes {
		if h.commits < h.end {
			holed++
		}
	}
	if holed == 0 {
		t.Fatal("no lane ended holed: the test no longer exercises the tail patch")
	}

	batched, err := RunBatchArena(context.Background(), NewArena(), b.Params, commits, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		solo, err := RunContext(context.Background(), Config{
			Workload:    b.Params,
			Pipeline:    sp.Pipeline,
			Commits:     commits,
			FrontEnd:    sp.FrontEnd,
			StoreBuffer: sp.StoreBuffer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo, batched[i]) {
			t.Fatalf("lane %d (holed: %v) diverges from its solo run", i, holes[i].commits < holes[i].end)
		}
	}
}
