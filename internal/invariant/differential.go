package invariant

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/rng"
	"softerror/internal/spec"
	"softerror/internal/sweep"
	"softerror/internal/workload"
)

// runTrace runs the reference interpreter built from (cfg, params) on a
// warmed default hierarchy and returns the materialised trace.
func runTrace(cfg pipeline.Config, params workload.Params, commits uint64) (*pipeline.Trace, error) {
	gen, err := workload.New(params)
	if err != nil {
		return nil, err
	}
	p, err := pipeline.New(cfg, gen, workload.WarmedDefault())
	if err != nil {
		return nil, err
	}
	return p.Run(commits, true), nil
}

// laneWrap wraps a lane's sink before the run: nil in the checks, a
// perturbation in their negative-half tests, which prove a check fails
// when the lane's events drift.
type laneWrap func(pipeline.BatchSink) pipeline.BatchSink

// runLane runs (cfg, params) as a one-lane batch — the production engine —
// on a warmed default hierarchy, delivering the lane's events to the sink
// newSink builds over the decoded stream (wrapped by wrap, if non-nil).
func runLane(cfg pipeline.Config, params workload.Params, commits uint64, wrap laneWrap,
	newSink func(*workload.Shared) (pipeline.BatchSink, error)) (pipeline.Stats, error) {
	sh, err := workload.NewShared(params)
	if err != nil {
		return pipeline.Stats{}, err
	}
	sink, err := newSink(sh)
	if err != nil {
		return pipeline.Stats{}, err
	}
	if wrap != nil {
		sink = wrap(sink)
	}
	stats, err := pipeline.RunBatchStreamArena(context.Background(), commits, sh,
		[]pipeline.Config{cfg}, []*cache.Hierarchy{workload.WarmedDefault()},
		[]pipeline.BatchSink{sink}, nil)
	if err != nil {
		return pipeline.Stats{}, err
	}
	return stats[0], nil
}

// checkTraceDifferential cross-validates the production engine against the
// reference interpreter on one random configuration: a one-lane batch,
// which skips quiescent cycles over compact entries, must record a trace
// identical in every cycle count, residency interval and committed
// instruction to the stepping reference's.
func checkTraceDifferential(seed uint64, opt Options) error {
	return traceDifferential(seed, opt, nil)
}

func traceDifferential(seed uint64, opt Options, wrap laneWrap) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xD1FF)
	params := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	// Narrow queues on a third of draws: capacity-limited regimes are where
	// a wrong horizon first shows as a shifted eviction.
	if s.Bool(1.0 / 3) {
		cfg.IQSize = 8
		cfg.StoreBufferSize = 2
	}
	want, err := runTrace(cfg, params, opt.Commits)
	if err != nil {
		return err
	}
	rec := pipeline.NewTraceRecorder(cfg, opt.Commits)
	st, err := runLane(cfg, params, opt.Commits, wrap, func(sh *workload.Shared) (pipeline.BatchSink, error) {
		return pipeline.Beside(sh, nil, rec), nil
	})
	if err != nil {
		return err
	}
	if got := rec.Trace(st); !reflect.DeepEqual(want, got) {
		return fmt.Errorf("one-lane batch trace diverges from the reference interpreter's "+
			"(cycles %d vs %d, commits %d vs %d, squashes %d vs %d, cfg=%+v)",
			want.Cycles, got.Cycles, want.Commits, got.Commits,
			want.Squashes, got.Squashes, cfg)
	}
	return nil
}

// checkStreamBatch runs one random configuration through the production
// path — a one-lane batch folding its events into an ace.BatchCollector
// with every analysis on — and through the reference interpreter, whose
// recorded trace the trace analyses integrate per residency over a
// full-log AnalyzeDeadness. The two report sets must be exactly equal:
// same integrals, same categories, not statistically close. The oracle
// shares neither the engine nor the collector's prefix analysis, tail
// patch or charge buckets.
func checkStreamBatch(seed uint64, opt Options) error {
	return streamBatch(seed, opt, nil)
}

func streamBatch(seed uint64, opt Options, wrap laneWrap) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0x57BA)
	params := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	ccfg := ace.StructureConfig(cfg, opt.Commits)
	ccfg.FrontEnd, ccfg.StoreBuffer, ccfg.RegFile = true, true, true
	var coll *ace.BatchCollector
	st, err := runLane(cfg, params, opt.Commits, wrap, func(sh *workload.Shared) (pipeline.BatchSink, error) {
		var err error
		coll, err = ace.NewBatchCollector(ccfg, ace.NewBatchGroup(sh))
		return coll, err
	})
	if err != nil {
		return err
	}
	got := coll.Finish(st.Cycles)

	tr, err := runTrace(cfg, params, opt.Commits)
	if err != nil {
		return err
	}
	iq := ace.Analyze(tr)
	want := &ace.Reports{
		IQ:          iq,
		FrontEnd:    ace.AnalyzeFrontEnd(tr, iq.Dead),
		StoreBuffer: ace.AnalyzeStoreBuffer(tr, iq.Dead),
		RegFile:     ace.AnalyzeRegFile(tr, iq.Dead),
		Dead:        iq.Dead,
	}
	if cfg.OutOfOrder {
		want.ROB = ace.AnalyzeROB(tr, iq.Dead)
		want.LSQ = ace.AnalyzeLSQ(tr, iq.Dead)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"IQ", got.IQ, want.IQ},
		{"front-end", got.FrontEnd, want.FrontEnd},
		{"store-buffer", got.StoreBuffer, want.StoreBuffer},
		{"register-file", got.RegFile, want.RegFile},
		{"ROB", got.ROB, want.ROB},
		{"LSQ", got.LSQ, want.LSQ},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Errorf("lane %s report diverges from the trace analysis of the reference run (cfg=%+v)",
				c.name, cfg)
		}
	}
	return nil
}

// randomGridSpec draws a small random sweep grid: the axes vary per seed so
// a seed sweep covers many benchmark/policy/geometry mixes. The draw is
// returned as a constructor so the same grid can be instantiated several
// times (the determinism checks compare independent runs).
func randomGridSpec(s *rng.Stream, opt Options) func() *sweep.Grid {
	all := spec.All()
	benches := make([]spec.Benchmark, 0, 2)
	first := s.Intn(len(all))
	benches = append(benches, all[first])
	if second := s.Intn(len(all)); second != first {
		benches = append(benches, all[second])
	}
	policies := []core.Policy{core.Policy(s.Intn(core.NumPolicies))}
	if extra := core.Policy(s.Intn(core.NumPolicies)); extra != policies[0] {
		policies = append(policies, extra)
	}
	iqSizes := []int{16 << s.Intn(3)} // 16, 32 or 64
	ooo := []bool{s.Bool(0.5)}
	commits := opt.Commits
	return func() *sweep.Grid {
		return &sweep.Grid{
			Benches:    append([]spec.Benchmark(nil), benches...),
			Policies:   append([]core.Policy(nil), policies...),
			IQSizes:    append([]int(nil), iqSizes...),
			OutOfOrder: append([]bool(nil), ooo...),
			Commits:    commits,
		}
	}
}

// gridCSV runs the grid and renders its rows with the shared CSV writer.
func gridCSV(g *sweep.Grid) ([]byte, error) {
	rows, err := g.Run(nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkParallelDeterminism renders one random grid at -j 1 and -j N and
// compares the CSV artefacts byte for byte.
func checkParallelDeterminism(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0x9A12)
	newGrid := randomGridSpec(s, opt)

	serial := newGrid()
	serial.Workers = 1
	serialCSV, err := gridCSV(serial)
	if err != nil {
		return err
	}
	fanned := newGrid()
	fanned.Workers = opt.Workers
	fannedCSV, err := gridCSV(fanned)
	if err != nil {
		return err
	}
	if !bytes.Equal(serialCSV, fannedCSV) {
		return fmt.Errorf("-j 1 and -j %d render different CSV bytes (%d vs %d bytes)",
			opt.Workers, len(serialCSV), len(fannedCSV))
	}
	return nil
}

// checkCheckpointResume cancels a random grid partway through — from its
// own progress callback, as a SIGINT or server drain would — then resumes
// from the checkpoint and demands bytes identical to an uninterrupted run.
// The cancellation point is seed-drawn, so a seed sweep kills the campaign
// at many different depths.
func checkCheckpointResume(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xC4E5)
	newGrid := randomGridSpec(s, opt)

	straight, err := gridCSV(newGrid())
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "invariant-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "grid.ckpt")

	g := newGrid()
	killAt := 1 + s.Intn(g.Size())
	ck, err := checkpoint.Open[sweep.Row](path, "sweep", g.Fingerprint(), g.Size(), false)
	if err != nil {
		return err
	}
	ck.SetInterval(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, runErr := g.RunContext(ctx, ck, func(done, total int) {
		if done >= killAt {
			cancel()
		}
	})
	// killAt == Size() can let the run finish before the cancel lands; both
	// a cancelled and a completed first leg must resume to the same bytes.
	if runErr != nil && ctx.Err() == nil {
		return fmt.Errorf("interrupted leg failed for a non-cancellation reason: %w", runErr)
	}

	resumed := newGrid()
	ck2, err := checkpoint.Open[sweep.Row](path, "sweep", resumed.Fingerprint(), resumed.Size(), true)
	if err != nil {
		return fmt.Errorf("reopening checkpoint: %w", err)
	}
	rows, err := resumed.RunContext(context.Background(), ck2, nil)
	if err != nil {
		return fmt.Errorf("resumed leg: %w", err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		return err
	}
	if !bytes.Equal(straight, buf.Bytes()) {
		return fmt.Errorf("resumed CSV differs from uninterrupted run (killed after %d of %d cells)",
			killAt, g.Size())
	}
	return nil
}
