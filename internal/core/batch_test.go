package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"softerror/internal/ace"
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
		one, err := RunContext(context.Background(), Config{
			Workload:    b.Params,
			Pipeline:    sp.Pipeline,
			Commits:     commits,
			FrontEnd:    sp.FrontEnd,
			StoreBuffer: sp.StoreBuffer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, batched[i]) {
			t.Fatalf("lane %d diverges from its one-lane run:\n one-lane IPC=%.6f SDC=%.6f cycles=%d\n batched  IPC=%.6f SDC=%.6f cycles=%d",
				i, one.IPC, one.Report.SDCAVF(), one.Cycles,
				batched[i].IPC, batched[i].Report.SDCAVF(), batched[i].Cycles)
		}
	}
}

// oracleResult is the Result the trace analyses derive from the reference
// interpreter's recorded trace of one spec — independent of both the
// production engine and its collector.
func oracleResult(t *testing.T, w workload.Params, commits uint64, sp BatchSpec) *Result {
	t.Helper()
	gen, err := workload.New(w)
	if err != nil {
		t.Fatal(err)
	}
	tr := pipeline.MustNew(sp.Pipeline, gen, workload.WarmedDefault()).Run(commits, true)
	iq := ace.Analyze(tr)
	res := &Result{
		Name:           w.Name,
		IPC:            tr.IPC(),
		Report:         iq,
		Cycles:         tr.Cycles,
		Commits:        tr.Commits,
		Squashes:       tr.Squashes,
		Refetches:      tr.Refetches,
		ThrottleEvents: tr.ThrottleEvents,
		LoadMissRateL0: tr.LoadMissRate(cache.LevelL0),
		LoadMissRateL1: tr.LoadMissRate(cache.LevelL1),
	}
	if sp.FrontEnd {
		res.FrontEndReport = ace.AnalyzeFrontEnd(tr, iq.Dead)
	}
	if sp.StoreBuffer {
		res.StoreBufferReport = ace.AnalyzeStoreBuffer(tr, iq.Dead)
	}
	if sp.Pipeline.OutOfOrder {
		res.ROBReport = ace.AnalyzeROB(tr, iq.Dead)
		res.LSQReport = ace.AnalyzeLSQ(tr, iq.Dead)
		res.TAGEReport = ace.AnalyzeTAGE(tr)
	}
	return res
}

// TestRunBatchUnshareableFallsThrough pins the one fallback: a workload
// with a PC-indexed predictor cannot share its stream, so the batch runs
// each spec on the reference interpreter — and still succeeds, every lane
// equal to the trace analyses of that spec's reference trace.
func TestRunBatchUnshareableFallsThrough(t *testing.T) {
	p := workload.Default()
	p.BranchPredictor = "gshare"
	if _, err := workload.NewShared(p); !errors.Is(err, workload.ErrUnshareable) {
		t.Fatalf("gshare stream = %v, want ErrUnshareable", err)
	}
	const commits = 3000
	ooo := pipeline.DefaultConfig()
	ooo.OutOfOrder = true
	ooo.SquashTrigger = pipeline.TriggerL1Miss
	specs := []BatchSpec{
		{Pipeline: pipeline.DefaultConfig(), FrontEnd: true, StoreBuffer: true},
		{Pipeline: ooo, StoreBuffer: true},
	}
	got, err := RunBatchContext(context.Background(), p, commits, specs)
	if err != nil {
		t.Fatalf("gshare batch: %v", err)
	}
	for i, sp := range specs {
		if want := oracleResult(t, p, commits, sp); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("lane %d diverges from its reference-path result", i)
		}
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
// lane's Result equals the trace analyses of its spec's reference trace.
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
		if want := oracleResult(t, b.Params, commits, sp); !reflect.DeepEqual(want, batched[i]) {
			t.Fatalf("lane %d (holed: %v) diverges from its reference trace's analyses",
				i, holes[i].commits < holes[i].end)
		}
	}
}

// TestRunContextHonoursOptions pins RunContext's per-run options on both
// of its paths — the one-lane batch and, for an unshareable stream, the
// reference interpreter: KeepTrace returns the reference interpreter's
// trace and RegFile the register-file analysis of that trace.
func TestRunContextHonoursOptions(t *testing.T) {
	for _, bp := range []string{"", "gshare"} {
		t.Run("predictor="+bp, func(t *testing.T) {
			p := workload.Default()
			p.BranchPredictor = bp
			const commits = 3000
			cfg := pipeline.DefaultConfig()
			cfg.SquashTrigger = pipeline.TriggerL1Miss
			res, err := RunContext(context.Background(), Config{
				Workload: p, Pipeline: cfg, Commits: commits,
				KeepTrace: true, RegFile: true, FrontEnd: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.New(p)
			if err != nil {
				t.Fatal(err)
			}
			tr := pipeline.MustNew(cfg, gen, workload.WarmedDefault()).Run(commits, true)
			if !reflect.DeepEqual(res.Trace, tr) {
				t.Fatal("KeepTrace trace differs from the reference interpreter's")
			}
			dead := ace.AnalyzeDeadness(tr.CommitLog)
			if want := ace.AnalyzeRegFile(tr, dead); !reflect.DeepEqual(res.RegFile, want) {
				t.Errorf("RegFile report differs:\n got %+v\nwant %+v", res.RegFile, want)
			}
			if want := ace.AnalyzeFrontEnd(tr, dead); !reflect.DeepEqual(res.FrontEndReport, want) {
				t.Error("front-end report differs from the trace analysis")
			}
		})
	}
}
