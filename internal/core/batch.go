package core

import (
	"context"
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// BatchSpec is one lane of a batched evaluation: a pipeline configuration
// plus the lane's optional extra analyses. The RegFile analysis is not
// available on the batched path (it needs per-commit cycle retention only
// the solo Collector carries); route such runs through RunContext.
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
// Workloads whose stream cannot be shared (PC-indexed branch predictors)
// fail with an error wrapping workload.ErrUnshareable; callers fall back
// to per-spec RunContext. Caches are always pre-warmed (the batched path
// serves sweeps and suites, which never skip warming).
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
	if a == nil {
		a = NewArena()
	}
	if commits == 0 {
		commits = DefaultCommits
	}
	sh, group, err := a.stream(w)
	if err != nil {
		return nil, err
	}
	// Pre-size the shared memos: every lane walks ~commits body
	// instructions (plus a small overshoot), and wrong-path draws run a
	// fraction of that. One up-front reservation replaces the log2(commits)
	// append-doublings the memos would otherwise pay; on a reused stream
	// the memos are already materialised and this is a no-op.
	sh.Reserve(int(commits)+1024, int(commits)/4+256)

	// Warm hierarchies come re-stamped from the arena's pool: CloneInto is
	// bit-identical to a fresh warm clone (pinned by the cache clone
	// tests), and a memcpy of the warm state is far cheaper than
	// re-simulating the warm-up K times.
	zero := pipeline.Config{}
	cfgs := make([]pipeline.Config, len(specs))
	mems := make([]*cache.Hierarchy, len(specs))
	sinks := make([]pipeline.BatchSink, len(specs))
	colls := make([]*ace.BatchCollector, len(specs))
	for i, sp := range specs {
		cfg := sp.Pipeline
		if cfg == zero {
			cfg = pipeline.DefaultConfig()
		}
		cfgs[i] = cfg
		mems[i] = a.warmHierarchy()
		ccfg := ace.StructureConfig(cfg, commits)
		ccfg.FrontEnd, ccfg.StoreBuffer = sp.FrontEnd, sp.StoreBuffer
		coll, err := a.collector(ccfg, group)
		if err != nil {
			return nil, err
		}
		colls[i] = coll
		sinks[i] = coll
	}

	stats, err := pipeline.RunBatchStreamArena(ctx, commits, sh, cfgs, mems, sinks, &a.pipe)
	if err != nil {
		return nil, err
	}

	out := make([]*Result, len(specs))
	for i := range specs {
		st := stats[i]
		reps := colls[i].Finish(st.Cycles)
		a.putCollector(colls[i])
		a.putHierarchy(mems[i])
		meterCycles(ctx, st.Cycles)
		out[i] = &Result{
			Name:              w.Name,
			IPC:               st.IPC(),
			Report:            reps.IQ,
			Cycles:            st.Cycles,
			Commits:           st.Commits,
			Squashes:          st.Squashes,
			Refetches:         st.Refetches,
			ThrottleEvents:    st.ThrottleEvents,
			LoadMissRateL0:    st.LoadMissRate(cache.LevelL0),
			LoadMissRateL1:    st.LoadMissRate(cache.LevelL1),
			FrontEndReport:    reps.FrontEnd,
			StoreBufferReport: reps.StoreBuffer,
			ROBReport:         reps.ROB,
			LSQReport:         reps.LSQ,
			TAGEReport:        tageReport(cfgs[i], st),
		}
	}
	return out, nil
}
