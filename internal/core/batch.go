package core

import (
	"context"
	"errors"
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// BatchSpec is one lane of a batched evaluation: a pipeline configuration
// plus the lane's optional extra analyses.
type BatchSpec struct {
	Pipeline    pipeline.Config
	FrontEnd    bool
	StoreBuffer bool
}

// RunBatchContext evaluates K configuration variants over one decode of
// the workload's instruction stream: one generator pass, K compact
// pipeline lanes, and one deadness analysis of the longest committed body
// prefix, which each lane's collector patches to its own committed set. Each
// returned Result is byte-identical to RunContext under the same spec —
// the batched-independent seraudit check pins this.
//
// Workloads whose stream cannot be shared (PC-indexed branch predictors,
// workload.ErrUnshareable) run each spec on the reference interpreter
// instead, with the same Results. Caches are always pre-warmed.
func RunBatchContext(ctx context.Context, w workload.Params, commits uint64, specs []BatchSpec) ([]*Result, error) {
	a := defaultArenas.Get()
	defer defaultArenas.Put(a)
	return RunBatchArena(ctx, a, w, commits, specs)
}

// RunBatchArena is RunBatchContext drawing all reusable evaluation state —
// decoded stream memos, warm hierarchies, collectors, lane state — from
// the caller's arena. Arena reuse is invisible in the results: a reused
// arena returns byte-identical Results to a fresh one (the arena-reuse
// seraudit check pins this). The arena serves one run at a time. Every
// lane's cycles go to the context's Meter, if it carries one.
func RunBatchArena(ctx context.Context, a *Arena, w workload.Params, commits uint64, specs []BatchSpec) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	lanes := make([]Config, len(specs))
	for i, sp := range specs {
		lanes[i] = Config{Pipeline: sp.Pipeline, FrontEnd: sp.FrontEnd, StoreBuffer: sp.StoreBuffer}
	}
	return runLanes(ctx, a, w, commits, lanes)
}

// runLanes evaluates one lane per Config over one decode of w — the path
// RunBatchArena and RunContext share. Each Config contributes only its
// per-lane fields: Pipeline, the optional analyses and KeepTrace.
func runLanes(ctx context.Context, a *Arena, w workload.Params, commits uint64, lanes []Config) ([]*Result, error) {
	if a == nil {
		a = NewArena()
	}
	if commits == 0 {
		commits = DefaultCommits
	}
	cfgs := make([]pipeline.Config, len(lanes))
	for i := range lanes {
		cfgs[i] = lanes[i].Pipeline
		if cfgs[i] == (pipeline.Config{}) {
			cfgs[i] = pipeline.DefaultConfig()
		}
	}
	sh, group, err := a.stream(w)
	if errors.Is(err, workload.ErrUnshareable) {
		out := make([]*Result, len(lanes))
		for i := range lanes {
			if out[i], err = referenceRun(ctx, w, commits, cfgs[i], &lanes[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	// Pre-size the shared memos: every lane walks ~commits body
	// instructions (plus a small overshoot). Wrong-path draws vary by
	// workload — about 0.13-0.27 per commit on the FP roster benchmarks,
	// 0.67-1.1 on the integer ones — so the commits/4 reservation fits FP
	// streams and integer streams regrow past it on demand. Reserving a
	// full commits instead costs more peak memory (cached FP streams then
	// hold unused capacity) than the regrowth it saves. On a reused stream
	// the memos are already materialised and this is a no-op.
	sh.Reserve(int(commits)+1024, int(commits)/4+256)

	// Warm hierarchies come re-stamped from the arena's pool: CloneInto is
	// bit-identical to a fresh warm clone (pinned by the cache clone
	// tests), and a memcpy of the warm state is far cheaper than
	// re-simulating the warm-up K times.
	mems := make([]*cache.Hierarchy, len(lanes))
	sinks := make([]pipeline.BatchSink, len(lanes))
	colls := make([]*ace.BatchCollector, len(lanes))
	var recs []*pipeline.TraceRecorder
	for i := range lanes {
		ln := &lanes[i]
		mems[i] = a.warmHierarchy()
		ccfg := ace.StructureConfig(cfgs[i], commits)
		ccfg.FrontEnd, ccfg.StoreBuffer, ccfg.RegFile = ln.FrontEnd, ln.StoreBuffer, ln.RegFile
		coll, err := a.collector(ccfg, group)
		if err != nil {
			return nil, err
		}
		colls[i] = coll
		sinks[i] = coll
		if ln.KeepTrace {
			if recs == nil {
				recs = make([]*pipeline.TraceRecorder, len(lanes))
			}
			recs[i] = pipeline.NewTraceRecorder(cfgs[i], commits)
			sinks[i] = pipeline.Beside(sh, sinks[i], recs[i])
		}
	}

	stats, err := pipeline.RunBatchStreamArena(ctx, commits, sh, cfgs, mems, sinks, &a.pipe)
	if err != nil {
		return nil, err
	}

	out := make([]*Result, len(lanes))
	for i := range lanes {
		st := stats[i]
		out[i] = resultOf(w.Name, cfgs[i], st, colls[i].Finish(st.Cycles))
		if recs != nil && recs[i] != nil {
			out[i].Trace = recs[i].Trace(st)
		}
		a.putCollector(colls[i])
		a.putHierarchy(mems[i])
		meterCycles(ctx, st.Cycles)
	}
	return out, nil
}

// referenceRun evaluates one lane on the reference interpreter — the path
// for streams no lanes can share (workload.ErrUnshareable). It records the
// trace and integrates it with the trace analyses, honouring every
// per-lane option.
func referenceRun(ctx context.Context, w workload.Params, commits uint64, cfg pipeline.Config, ln *Config) (*Result, error) {
	gen, err := workload.New(w)
	if err != nil {
		return nil, err
	}
	pipe, err := pipeline.New(cfg, gen, workload.WarmedDefault())
	if err != nil {
		return nil, err
	}
	rec := pipeline.NewTraceRecorder(cfg, commits)
	st, err := pipe.RunStream(ctx, commits, rec)
	if err != nil {
		return nil, err
	}
	tr := rec.Trace(st)
	iq := ace.Analyze(tr)
	reps := &ace.Reports{IQ: iq, Dead: iq.Dead}
	if ln.FrontEnd {
		reps.FrontEnd = ace.AnalyzeFrontEnd(tr, iq.Dead)
	}
	if ln.StoreBuffer {
		reps.StoreBuffer = ace.AnalyzeStoreBuffer(tr, iq.Dead)
	}
	if ln.RegFile {
		reps.RegFile = ace.AnalyzeRegFile(tr, iq.Dead)
	}
	if cfg.OutOfOrder {
		reps.ROB = ace.AnalyzeROB(tr, iq.Dead)
		reps.LSQ = ace.AnalyzeLSQ(tr, iq.Dead)
	}
	res := resultOf(w.Name, cfg, st, reps)
	if ln.KeepTrace {
		res.Trace = tr
	}
	meterCycles(ctx, st.Cycles)
	return res, nil
}

// resultOf distils one lane's stats and reports into a Result.
func resultOf(name string, cfg pipeline.Config, st pipeline.Stats, reps *ace.Reports) *Result {
	return &Result{
		Name:              name,
		IPC:               st.IPC(),
		Report:            reps.IQ,
		Cycles:            st.Cycles,
		Commits:           st.Commits,
		Squashes:          st.Squashes,
		Refetches:         st.Refetches,
		ThrottleEvents:    st.ThrottleEvents,
		LoadMissRateL0:    st.LoadMissRate(cache.LevelL0),
		LoadMissRateL1:    st.LoadMissRate(cache.LevelL1),
		RegFile:           reps.RegFile,
		FrontEndReport:    reps.FrontEnd,
		StoreBufferReport: reps.StoreBuffer,
		ROBReport:         reps.ROB,
		LSQReport:         reps.LSQ,
		TAGEReport:        tageReport(cfg, st),
	}
}
