// Package core is the library façade: it wires a synthetic workload, the
// cache hierarchy, the pipeline, the ACE analysis and the fault-injection
// machinery into single-call experiments, and implements the paper's
// evaluation drivers (Table 1, Figures 1-4, the §4.1 occupancy breakdown,
// and the fetch-throttling ablation).
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// Policy selects the exposure-reduction configuration under study — the
// rows of the paper's Table 1, plus the fetch-throttling action studied in
// §3.1.
type Policy uint8

const (
	// PolicyBaseline runs without exposure reduction.
	PolicyBaseline Policy = iota
	// PolicySquashL1 squashes the IQ on loads that miss the L1 cache.
	PolicySquashL1
	// PolicySquashL0 squashes the IQ on loads that miss the L0 cache.
	PolicySquashL0
	// PolicyThrottleL1 stalls fetch (no squash) on L1 misses.
	PolicyThrottleL1
	// PolicyThrottleL0 stalls fetch (no squash) on L0 misses.
	PolicyThrottleL0

	// NumPolicies is the number of policies.
	NumPolicies = iota
)

var policyNames = [NumPolicies]string{
	"no squashing", "squash on L1 load misses", "squash on L0 load misses",
	"throttle on L1 load misses", "throttle on L0 load misses",
}

// String names the policy as in Table 1.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

var policyFlags = [NumPolicies]string{
	"baseline", "squash-l1", "squash-l0", "throttle-l1", "throttle-l0",
}

// Flag returns the policy's canonical flag/API vocabulary — the inverse of
// ParsePolicy, so ParsePolicy(p.Flag()) == p for every valid policy.
func (p Policy) Flag() string {
	if int(p) < len(policyFlags) {
		return policyFlags[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy resolves the flag/API vocabulary shared by cmd/sweep,
// cmd/sersim and the evaluation service to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "baseline", "none":
		return PolicyBaseline, nil
	case "squash-l1":
		return PolicySquashL1, nil
	case "squash-l0":
		return PolicySquashL0, nil
	case "throttle-l1":
		return PolicyThrottleL1, nil
	case "throttle-l0":
		return PolicyThrottleL0, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (known: baseline, squash-l1, squash-l0, throttle-l1, throttle-l0)", s)
	}
}

// Apply configures a pipeline for the policy.
func (p Policy) Apply(cfg *pipeline.Config) {
	cfg.SquashTrigger = pipeline.TriggerNone
	cfg.ThrottleTrigger = pipeline.TriggerNone
	switch p {
	case PolicySquashL1:
		cfg.SquashTrigger = pipeline.TriggerL1Miss
	case PolicySquashL0:
		cfg.SquashTrigger = pipeline.TriggerL0Miss
	case PolicyThrottleL1:
		cfg.ThrottleTrigger = pipeline.TriggerL1Miss
	case PolicyThrottleL0:
		cfg.ThrottleTrigger = pipeline.TriggerL0Miss
	}
}

// Config parameterises one simulation.
type Config struct {
	// Workload is the synthetic program profile.
	Workload workload.Params
	// Pipeline is the core configuration; zero value means
	// pipeline.DefaultConfig().
	Pipeline pipeline.Config
	// Commits is how many instructions to commit (default 100,000 —
	// one thousandth of the paper's SimPoint length, enough for the AVF
	// integrals to stabilise on a laptop-scale run).
	Commits uint64
	// SkipWarm skips pre-warming the cache hierarchy. The paper measures
	// slices after skipping billions of instructions, so warm caches are
	// the faithful default.
	SkipWarm bool
	// KeepTrace retains the full pipeline trace (residencies and commit
	// log) on the Result, as needed for fault-injection campaigns. Off by
	// default: without it the run streams residencies straight into the
	// AVF integrals and never materialises a trace.
	KeepTrace bool
	// RegFile additionally computes the architectural register files'
	// vulnerability report (the paper's closing "other structures"
	// extension).
	RegFile bool
	// FrontEnd and StoreBuffer additionally compute the fetch buffer's and
	// store buffer's vulnerability reports (§4.2's front-end structures and
	// the conclusion's "other structures").
	FrontEnd    bool
	StoreBuffer bool
	// Sink, when non-nil, is teed into the pipeline's event stream on the
	// streaming path (KeepTrace false) — e.g. a fault.StreamRecorder that
	// retains just the intervals an injection campaign samples.
	Sink pipeline.Sink
}

// DefaultCommits is the default per-run commit count.
const DefaultCommits = 100_000

// Meter counts the cycles simulated by the runs whose context carries it
// (WithMeter): a scope — one server, one job, one test — rather than the
// whole process, so concurrent scopes cannot see each other's work. Safe
// for concurrent use; the zero value is ready.
type Meter struct{ cycles atomic.Uint64 }

// Cycles returns the total cycles the meter has counted.
func (m *Meter) Cycles() uint64 { return m.cycles.Load() }

type meterKey struct{}

// WithMeter returns a context under which RunContext and the batched runs
// add every simulated cycle to m.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	return context.WithValue(ctx, meterKey{}, m)
}

// meterCycles adds a finished run's cycles to the context's meter, if any.
func meterCycles(ctx context.Context, cycles uint64) {
	if m, _ := ctx.Value(meterKey{}).(*Meter); m != nil {
		m.cycles.Add(cycles)
	}
}

// Result is the distilled outcome of one simulation.
type Result struct {
	// Name echoes the workload name.
	Name string
	// IPC is committed instructions per cycle.
	IPC float64
	// Report is the integrated ACE/AVF analysis.
	Report *ace.Report
	// Cycles, Commits, Squashes, Refetches and ThrottleEvents summarise
	// the run.
	Cycles         uint64
	Commits        uint64
	Squashes       uint64
	Refetches      uint64
	ThrottleEvents uint64
	// LoadMissRateL0 and LoadMissRateL1 are the realised load miss rates
	// at the squash-trigger levels.
	LoadMissRateL0 float64
	LoadMissRateL1 float64
	// Trace is retained only when Config.KeepTrace was set.
	Trace *pipeline.Trace
	// RegFile is the register-file vulnerability report, present only
	// when Config.RegFile was set.
	RegFile *ace.RegFileReport
	// FrontEndReport and StoreBufferReport are present only when
	// Config.FrontEnd / Config.StoreBuffer were set.
	FrontEndReport    *ace.Report
	StoreBufferReport *ace.SBReport
	// ROBReport, LSQReport and TAGEReport are the out-of-order family's
	// structure analyses, present only when Pipeline.OutOfOrder was set.
	ROBReport  *ace.Report
	LSQReport  *ace.LSQReport
	TAGEReport *ace.TAGEReport
}

// tageReport closes the TAGE exposure integral carried by an out-of-order
// run's stats; nil for the in-order family.
func tageReport(cfg pipeline.Config, st pipeline.Stats) *ace.TAGEReport {
	if !cfg.OutOfOrder {
		return nil
	}
	n := cfg.Normalized()
	return &ace.TAGEReport{
		Cycles:       st.Cycles,
		Tables:       n.TAGETables,
		TableEntries: 1 << n.TAGETableBits,
		ReadCycles:   st.TAGEReadCycles,
	}
}

// Run executes one simulation end to end: build the generator, warm the
// hierarchy, run the pipeline, and integrate the AVFs.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation threaded through the
// pipeline's cycle loop, so a SIGINT or watchdog aborts within one
// simulation rather than one campaign. A finished run adds its cycles to
// the context's Meter, if it carries one.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Commits == 0 {
		cfg.Commits = DefaultCommits
	}
	zero := pipeline.Config{}
	if cfg.Pipeline == zero {
		cfg.Pipeline = pipeline.DefaultConfig()
	}
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		return nil, err
	}
	// Warm runs clone a process-wide warmed snapshot instead of redoing the
	// (workload-independent) warm sweep; the clone is bit-identical to a
	// freshly warmed hierarchy, so results are unchanged — only cheaper.
	var mem *cache.Hierarchy
	if cfg.SkipWarm {
		var err error
		mem, err = cache.NewHierarchy(cache.DefaultHierarchy())
		if err != nil {
			return nil, err
		}
	} else {
		mem = workload.WarmedDefault()
	}
	pipe, err := pipeline.New(cfg.Pipeline, gen, mem)
	if err != nil {
		return nil, err
	}
	if cfg.KeepTrace {
		tr, err := pipe.RunContext(ctx, cfg.Commits, true)
		if err != nil {
			return nil, err
		}
		rep := ace.Analyze(tr)
		res := &Result{
			Name:           cfg.Workload.Name,
			IPC:            tr.IPC(),
			Report:         rep,
			Cycles:         tr.Cycles,
			Commits:        tr.Commits,
			Squashes:       tr.Squashes,
			Refetches:      tr.Refetches,
			ThrottleEvents: tr.ThrottleEvents,
			LoadMissRateL0: tr.LoadMissRate(cache.LevelL0),
			LoadMissRateL1: tr.LoadMissRate(cache.LevelL1),
			Trace:          tr,
		}
		if cfg.RegFile {
			res.RegFile = ace.AnalyzeRegFile(tr, rep.Dead)
		}
		if cfg.FrontEnd {
			res.FrontEndReport = ace.AnalyzeFrontEnd(tr, rep.Dead)
		}
		if cfg.StoreBuffer {
			res.StoreBufferReport = ace.AnalyzeStoreBuffer(tr, rep.Dead)
		}
		if cfg.Pipeline.OutOfOrder {
			res.ROBReport = ace.AnalyzeROB(tr, rep.Dead)
			res.LSQReport = ace.AnalyzeLSQ(tr, rep.Dead)
			res.TAGEReport = ace.AnalyzeTAGE(tr)
		}
		meterCycles(ctx, res.Cycles)
		return res, nil
	}
	// Streaming path: residencies fold into the AVF integrals as their
	// intervals close; no trace is ever materialised. The resulting reports
	// are exactly equal to the batch path's (pinned by the ace stream
	// tests), just cheaper.
	ccfg := ace.StructureConfig(cfg.Pipeline, cfg.Commits)
	ccfg.FrontEnd, ccfg.StoreBuffer, ccfg.RegFile = cfg.FrontEnd, cfg.StoreBuffer, cfg.RegFile
	coll := ace.NewCollector(ccfg)
	var sink pipeline.Sink = coll
	if cfg.Sink != nil {
		sink = pipeline.Tee(coll, cfg.Sink)
	}
	st, err := pipe.RunStream(ctx, cfg.Commits, sink)
	if err != nil {
		return nil, err
	}
	reps := coll.Finish(st.Cycles)
	meterCycles(ctx, st.Cycles)
	return &Result{
		Name:              cfg.Workload.Name,
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
		TAGEReport:        tageReport(cfg.Pipeline, st),
	}, nil
}
