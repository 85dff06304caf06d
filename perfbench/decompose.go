package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// Event kinds a recorder stores: one per BatchSink / BatchOOOSink method.
const (
	evCommit uint8 = iota
	evResidency
	evFrontEnd
	evStoreBuffer
	evROB
	evLSQ
)

// laneEvent is one recorded sink call; a, b, c carry its cycle fields in
// declaration order and f1, f2 its flags.
type laneEvent struct {
	kind   uint8
	f1, f2 bool
	ref    pipeline.BatchRef
	seq    uint64
	a, b   uint64
	c      uint64
}

// recorder is a do-little pipeline.BatchSink: it appends each event so the
// cycle loop can be timed apart from AVF collection, and replays them into
// an ace.BatchCollector afterwards. Collectors see each lane's events in
// the order the lane emitted them, exactly as when attached directly.
type recorder struct{ evs []laneEvent }

func (r *recorder) BatchCommit(ref pipeline.BatchRef, seq, enq, issue uint64) {
	r.evs = append(r.evs, laneEvent{kind: evCommit, ref: ref, seq: seq, a: enq, b: issue})
}

func (r *recorder) BatchResidency(ref pipeline.BatchRef, seq, enq, issue, evict uint64, issued, squashed bool) {
	r.evs = append(r.evs, laneEvent{kind: evResidency, ref: ref, seq: seq, a: enq, b: issue, c: evict, f1: issued, f2: squashed})
}

func (r *recorder) BatchFrontEnd(ref pipeline.BatchRef, seq, fetched, until uint64, delivered bool) {
	r.evs = append(r.evs, laneEvent{kind: evFrontEnd, ref: ref, seq: seq, a: fetched, b: until, f1: delivered})
}

func (r *recorder) BatchStoreBuffer(ref pipeline.BatchRef, seq, enq, evict uint64) {
	r.evs = append(r.evs, laneEvent{kind: evStoreBuffer, ref: ref, seq: seq, a: enq, b: evict})
}

func (r *recorder) BatchROB(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	r.evs = append(r.evs, laneEvent{kind: evROB, ref: ref, seq: seq, a: enq, b: evict, f1: read})
}

func (r *recorder) BatchLSQ(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	r.evs = append(r.evs, laneEvent{kind: evLSQ, ref: ref, seq: seq, a: enq, b: evict, f1: read})
}

func (r *recorder) replay(c *ace.BatchCollector) {
	for i := range r.evs {
		e := &r.evs[i]
		switch e.kind {
		case evCommit:
			c.BatchCommit(e.ref, e.seq, e.a, e.b)
		case evResidency:
			c.BatchResidency(e.ref, e.seq, e.a, e.b, e.c, e.f1, e.f2)
		case evFrontEnd:
			c.BatchFrontEnd(e.ref, e.seq, e.a, e.b, e.f1)
		case evStoreBuffer:
			c.BatchStoreBuffer(e.ref, e.seq, e.a, e.b)
		case evROB:
			c.BatchROB(e.ref, e.seq, e.a, e.b, e.f1)
		case evLSQ:
			c.BatchLSQ(e.ref, e.seq, e.a, e.b, e.f1)
		}
	}
}

// layerCounts accumulates the work counts a traced run reports beside the
// layers' times.
type layerCounts struct {
	decodeInst   int
	warmCount    int
	cycles       uint64
	cycleAllocs  uint64
	finishAllocs uint64
	finishBytes  uint64
	// strikes and campaignS give the fault campaign's strike rate.
	strikes   float64
	campaignS float64
	// staticQueries counts static.Analyze calls; sweepCells the cells of
	// the sweep.grid spans.
	staticQueries int
	sweepCells    int
	// peer is the runtime activity of a server process beside the traced
	// one (serve-mixed's), added to the runtime.* metrics.
	peer memDelta
	// extra carries workload-specific layer metrics (server counters,
	// fleet snapshot deltas, generator lateness).
	extra map[string]float64
}

// decomposer performs core.RunBatchArena's steps as separate calls into
// each layer's public functions, one span per call, keeping the state a
// worker's core.Arena keeps between batches (lane slabs, warm hierarchies,
// collectors). It is for traced runs only: the spans cost nothing, but the
// event recording and the up-front decode are not how the program runs.
type decomposer struct {
	tr     *tracer
	parent int
	pipe   pipeline.BatchArena
	mems   []*cache.Hierarchy
	colls  []*ace.BatchCollector
	recs   []*recorder
	counts layerCounts
}

// decode builds the workload's shared stream and materialises, before any
// cycle is simulated, the body prefix and wrong-path draws a batch of
// commits reads (the same estimate RunBatchArena reserves for). Draws
// beyond it are decoded lazily inside the cycle loop, as in the program.
func (d *decomposer) decode(w workload.Params, commits uint64) (*workload.Shared, *ace.BatchGroup, error) {
	var sh *workload.Shared
	var err error
	body, wrong := int(commits)+1024, int(commits)/4+256
	d.tr.do("workload.decode", d.parent, func() {
		sh, err = workload.NewShared(w)
		if err != nil {
			return
		}
		sh.Reserve(body, wrong)
		sh.BodyPrefix(body)
		sh.Wrong(wrong - 1)
	})
	if err != nil {
		return nil, nil, err
	}
	d.counts.decodeInst += body + wrong
	return sh, ace.NewBatchGroup(sh), nil
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// batch runs one batch of lanes over a decoded stream and builds the
// Results exactly as core.RunBatchArena does.
func (d *decomposer) batch(ctx context.Context, sh *workload.Shared, group *ace.BatchGroup, w workload.Params, commits uint64, specs []core.BatchSpec) ([]*core.Result, error) {
	k := len(specs)
	cfgs := make([]pipeline.Config, k)
	mems := make([]*cache.Hierarchy, k)
	sinks := make([]pipeline.BatchSink, k)
	for i, sp := range specs {
		cfgs[i] = sp.Pipeline
		if cfgs[i] == (pipeline.Config{}) {
			cfgs[i] = pipeline.DefaultConfig()
		}
	}
	for len(d.recs) < k {
		d.recs = append(d.recs, &recorder{})
	}
	d.tr.do("cache.warm", d.parent, func() {
		for i := range mems {
			var dst *cache.Hierarchy
			if n := len(d.mems); n > 0 {
				dst, d.mems = d.mems[n-1], d.mems[:n-1]
			}
			mems[i] = workload.WarmedInto(dst)
		}
	})
	d.counts.warmCount += k
	for i := range sinks {
		// Pre-size so the cycle loop's allocation count is the engine's,
		// not the recorder's growth: a lane emits a few events per commit.
		if want := 5*int(commits) + 4096; cap(d.recs[i].evs) < want {
			d.recs[i].evs = make([]laneEvent, 0, want)
		}
		d.recs[i].evs = d.recs[i].evs[:0]
		sinks[i] = d.recs[i]
	}

	var stats []pipeline.Stats
	var err error
	a0, _ := mallocs()
	d.tr.do("pipeline.cycle", d.parent, func() {
		stats, err = pipeline.RunBatchStreamArena(ctx, commits, sh, cfgs, mems, sinks, &d.pipe)
	})
	a1, _ := mallocs()
	if err != nil {
		return nil, err
	}
	d.counts.cycleAllocs += a1 - a0
	d.mems = append(d.mems, mems...)

	colls := make([]*ace.BatchCollector, k)
	for i, cfg := range cfgs {
		ccfg := ace.StructureConfig(cfg, commits)
		ccfg.FrontEnd, ccfg.StoreBuffer = specs[i].FrontEnd, specs[i].StoreBuffer
		if n := len(d.colls); n > 0 {
			colls[i], d.colls = d.colls[n-1], d.colls[:n-1]
			err = colls[i].Reset(ccfg, group)
		} else {
			colls[i], err = ace.NewBatchCollector(ccfg, group)
		}
		if err != nil {
			return nil, err
		}
	}
	d.tr.do("ace.events", d.parent, func() {
		for i := range colls {
			d.recs[i].replay(colls[i])
		}
	})

	reps := make([]*ace.Reports, k)
	f0, b0 := mallocs()
	d.tr.do("ace.finish", d.parent, func() {
		for i := range colls {
			reps[i] = colls[i].Finish(stats[i].Cycles)
		}
	})
	f1, b1 := mallocs()
	d.counts.finishAllocs += f1 - f0
	d.counts.finishBytes += b1 - b0
	d.colls = append(d.colls, colls...)

	out := make([]*core.Result, k)
	for i, st := range stats {
		d.counts.cycles += st.Cycles
		out[i] = &core.Result{
			Name:              w.Name,
			IPC:               st.IPC(),
			Report:            reps[i].IQ,
			Cycles:            st.Cycles,
			Commits:           st.Commits,
			Squashes:          st.Squashes,
			Refetches:         st.Refetches,
			ThrottleEvents:    st.ThrottleEvents,
			LoadMissRateL0:    st.LoadMissRate(cache.LevelL0),
			LoadMissRateL1:    st.LoadMissRate(cache.LevelL1),
			FrontEndReport:    reps[i].FrontEnd,
			StoreBufferReport: reps[i].StoreBuffer,
			ROBReport:         reps[i].ROB,
			LSQReport:         reps[i].LSQ,
			TAGEReport:        tageReport(cfgs[i], st),
		}
	}
	return out, nil
}

func tageReport(cfg pipeline.Config, st pipeline.Stats) *ace.TAGEReport {
	if !cfg.OutOfOrder {
		return nil
	}
	n := cfg.Normalized()
	return &ace.TAGEReport{Cycles: st.Cycles, Tables: n.TAGETables, TableEntries: 1 << n.TAGETableBits, ReadCycles: st.TAGEReadCycles}
}

// policySpecs builds one batch's lanes: the default pipeline under each
// policy, in the given core family.
func policySpecs(ooo bool, pols ...core.Policy) []core.BatchSpec {
	specs := make([]core.BatchSpec, len(pols))
	for i, pol := range pols {
		cfg := pipeline.DefaultConfig()
		cfg.OutOfOrder = ooo
		pol.Apply(&cfg)
		specs[i] = core.BatchSpec{Pipeline: cfg}
	}
	return specs
}

// workloadBatches decomposes every batch wave of one workload, timing the
// whole core.RunBatchArena on a cold arena beside it (core.batch) and
// checking that the decomposed Results equal it — if they differ, the
// trace does not describe the program. Each returned error string is one
// mismatch.
func (d *decomposer) workloadBatches(ctx context.Context, w workload.Params, commits uint64, waves [][]core.BatchSpec) ([]string, error) {
	sh, group, err := d.decode(w, commits)
	if err != nil {
		return nil, err
	}
	arena := core.NewArena()
	var bad []string
	for _, specs := range waves {
		got, err := d.batch(ctx, sh, group, w, commits, specs)
		if err != nil {
			return nil, err
		}
		var want []*core.Result
		d.tr.do("core.batch", d.parent, func() {
			want, err = core.RunBatchArena(ctx, arena, w, commits, specs)
		})
		if err != nil {
			return nil, err
		}
		d.tr.do("bench.verify", d.parent, func() {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					bad = append(bad, fmt.Sprintf("%s lane %d: decomposed batch differs from core.RunBatchArena", w.Name, i))
				}
			}
		})
	}
	return bad, nil
}
