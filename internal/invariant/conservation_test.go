package invariant

import (
	"context"
	"strings"
	"testing"

	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// TestConservationCatchesPerturbedTrace is the positive/negative pair for
// residency-conservation. Positive: a recorded run passes traceConserved.
// Negative: copies of its trace with one IQ interval inverted, one commit
// cycle moved off its residency's issue cycle, or front-end occupancy
// pushed past cycles × capacity must each fail, with the matching error —
// so a pass means each test is live, not vacuous. Both core families run.
func TestConservationCatchesPerturbedTrace(t *testing.T) {
	const commits = 2000
	for _, ooo := range []bool{false, true} {
		cfg := pipeline.DefaultConfig()
		cfg.SquashTrigger = pipeline.TriggerL1Miss
		cfg.OutOfOrder = ooo
		res, err := core.RunContext(context.Background(), core.Config{
			Workload: workload.Default(), Pipeline: cfg, Commits: commits,
			KeepTrace: true, FrontEnd: true, StoreBuffer: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := traceConserved(res, cfg, commits); err != nil {
			t.Fatalf("ooo=%v positive: %v", ooo, err)
		}
		for _, p := range []struct {
			name, want string
			edit       func(tr *pipeline.Trace)
		}{
			{"inverted-iq-interval", "iq interval inverted", func(tr *pipeline.Trace) {
				tr.Residencies = append([]pipeline.Residency(nil), tr.Residencies...)
				for i := range tr.Residencies {
					if r := &tr.Residencies[i]; r.Evict > r.Enq {
						r.Enq, r.Evict = r.Evict, r.Enq
						return
					}
				}
				t.Fatal("no IQ interval to invert")
			}},
			{"commit-off-issue", "matches 0 issued", func(tr *pipeline.Trace) {
				tr.CommitCycles = append([]uint64(nil), tr.CommitCycles...)
				tr.CommitCycles[len(tr.CommitCycles)/2]++
			}},
			{"front-end-over-capacity", "front-end occupancy", func(tr *pipeline.Trace) {
				full := pipeline.Residency{Enq: 0, Evict: tr.Cycles, Squashed: true}
				fe := append([]pipeline.Residency(nil), tr.FrontEnd...)
				for i := 0; i <= tr.FrontEndCap; i++ {
					fe = append(fe, full)
				}
				tr.FrontEnd = fe
			}},
		} {
			tr := *res.Trace
			p.edit(&tr)
			bad := *res
			bad.Trace = &tr
			err := traceConserved(&bad, cfg, commits)
			if err == nil || !strings.Contains(err.Error(), p.want) {
				t.Errorf("ooo=%v negative %s: got %v, want an error containing %q", ooo, p.name, err, p.want)
			}
		}
		if err := traceConserved(res, cfg, commits); err != nil {
			t.Errorf("ooo=%v: a perturbation leaked into the recorded trace: %v", ooo, err)
		}
	}
}
