package ace

import (
	"context"
	"reflect"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// runLane runs cfg as a one-lane batch over the default workload — the
// production engine — with a BatchCollector armed by ccfg, and returns the
// collector's reports.
func runLane(t *testing.T, cfg pipeline.Config, ccfg CollectorConfig, commits uint64) (*BatchCollector, *Reports) {
	t.Helper()
	sh, err := workload.NewShared(workload.Default())
	if err != nil {
		t.Fatal(err)
	}
	coll, err := NewBatchCollector(ccfg, NewBatchGroup(sh))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pipeline.RunBatchStreamArena(context.Background(), commits, sh,
		[]pipeline.Config{cfg}, []*cache.Hierarchy{workload.WarmedDefault()},
		[]pipeline.BatchSink{coll}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return coll, coll.Finish(stats[0].Cycles)
}

// TestCollectorMatchesBatchAnalysis pins the production collector against
// the independent oracle: for the same configuration, a one-lane batch's
// BatchCollector reports are *exactly* equal — every bit-cycle tally,
// field decomposition and deadness population — to the trace analyses of
// the reference interpreter's recorded trace, in-order and out of order,
// with the register-file analysis on and off.
func TestCollectorMatchesBatchAnalysis(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*pipeline.Config)
	}{
		{"default", func(c *pipeline.Config) {}},
		{"squash-l1", func(c *pipeline.Config) { c.SquashTrigger = pipeline.TriggerL1Miss }},
		{"squash-l0-throttle", func(c *pipeline.Config) {
			c.SquashTrigger = pipeline.TriggerL0Miss
			c.ThrottleTrigger = pipeline.TriggerL1Miss
		}},
		{"ooo-squash-l1", func(c *pipeline.Config) {
			c.OutOfOrder = true
			c.SquashTrigger = pipeline.TriggerL1Miss
		}},
		{"tiny-queues", func(c *pipeline.Config) {
			c.IQSize = 8
			c.StoreBufferSize = 2
			c.SquashTrigger = pipeline.TriggerL1Miss
		}},
	}
	const commits = 30000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pipeline.DefaultConfig()
			tc.mut(&cfg)

			// Oracle: the reference interpreter's trace, analysed per
			// residency over a full-log deadness analysis.
			p := pipeline.MustNew(cfg, workload.MustNew(workload.Default()), workload.WarmedDefault())
			tr := p.Run(commits, true)
			dead := AnalyzeDeadness(tr.CommitLog)
			want := &Reports{
				IQ:          AnalyzeWith(tr, dead),
				FrontEnd:    AnalyzeFrontEnd(tr, dead),
				StoreBuffer: AnalyzeStoreBuffer(tr, dead),
				RegFile:     AnalyzeRegFile(tr, dead),
				Dead:        dead,
			}
			if cfg.OutOfOrder {
				want.ROB = AnalyzeROB(tr, dead)
				want.LSQ = AnalyzeLSQ(tr, dead)
			}

			for _, regFile := range []bool{true, false} {
				name := "regfile"
				if !regFile {
					name = "no-regfile"
				}
				t.Run(name, func(t *testing.T) {
					ccfg := StructureConfig(cfg, commits)
					ccfg.FrontEnd, ccfg.StoreBuffer, ccfg.RegFile = true, true, regFile
					_, got := runLane(t, cfg, ccfg, commits)
					wantRF := want.RegFile
					if !regFile {
						wantRF = nil
					}
					for _, c := range []struct {
						name      string
						got, want any
					}{
						{"IQ", got.IQ, want.IQ},
						{"front-end", got.FrontEnd, want.FrontEnd},
						{"store-buffer", got.StoreBuffer, want.StoreBuffer},
						{"register-file", got.RegFile, wantRF},
						{"ROB", got.ROB, want.ROB},
						{"LSQ", got.LSQ, want.LSQ},
						{"deadness", got.Dead, want.Dead},
					} {
						if !reflect.DeepEqual(c.got, c.want) {
							t.Errorf("%s report differs:\n got %+v\nwant %+v", c.name, c.got, c.want)
						}
					}
				})
			}
		})
	}
}

// TestCollectorDisabledAnalysesNil pins that the opt-in reports stay nil
// (and cost nothing) when not requested.
func TestCollectorDisabledAnalysesNil(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	coll, got := runLane(t, cfg, StructureConfig(cfg, 5000), 5000)
	if got.FrontEnd != nil || got.StoreBuffer != nil || got.RegFile != nil ||
		got.ROB != nil || got.LSQ != nil {
		t.Fatal("disabled analyses should be nil")
	}
	if got.IQ == nil || got.IQ.TotalBC() == 0 {
		t.Fatal("IQ report missing")
	}
	if len(coll.feWait) != 0 || len(coll.sbOcc) != 0 || len(coll.issue) != 0 ||
		len(coll.robWait) != 0 || len(coll.lsqOcc) != 0 {
		t.Fatal("disabled analyses should retain no per-event state")
	}
}
