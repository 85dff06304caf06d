package invariant

import (
	"context"
	"fmt"

	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/rng"
)

// reportConserved checks one structure report's accounting: the bit-cycle
// classes must partition capacity exactly, and every AVF must be a
// probability.
func reportConserved(name string, r *aceReport) error {
	sum := r.IdleBC + r.NeverReadBC + r.ExACEBC + r.ACEBC + r.UnACETotalBC
	if sum != r.TotalBC {
		return fmt.Errorf("%s bit-cycle classes sum to %d, capacity is %d", name, sum, r.TotalBC)
	}
	for _, f := range []struct {
		label string
		v     float64
	}{
		{"sdc_avf", r.SDCAVF}, {"due_avf", r.DUEAVF}, {"false_due_avf", r.FalseDUEAVF},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("%s %s = %v, outside [0,1]", name, f.label, f.v)
		}
	}
	if r.SDCAVF+r.FalseDUEAVF > 1+1e-12 {
		return fmt.Errorf("%s ACE and un-ACE fractions overlap: %v + %v > 1",
			name, r.SDCAVF, r.FalseDUEAVF)
	}
	return nil
}

// aceReport is the subset of ace.Report the conservation check audits,
// flattened so both structure reports go through one validator.
type aceReport struct {
	TotalBC, IdleBC, NeverReadBC, ExACEBC, ACEBC, UnACETotalBC uint64
	SDCAVF, DUEAVF, FalseDUEAVF                                float64
}

// checkResidencyConservation drives one random workload × machine
// configuration with KeepTrace and holds its recorded trace and reports to
// traceConserved.
func checkResidencyConservation(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0x1A5E)
	params := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	res, err := core.RunContext(context.Background(), core.Config{
		Workload:    params,
		Pipeline:    cfg,
		Commits:     opt.Commits,
		KeepTrace:   true,
		FrontEnd:    true,
		StoreBuffer: true,
	})
	if err != nil {
		return fmt.Errorf("run: %w (cfg=%+v)", err, cfg)
	}
	return traceConserved(res, cfg, opt.Commits)
}

// traceConserved asserts over a run under cfg that (1) every recorded
// interval is well-formed, (2) per-structure occupancy integrals fit within
// cycles × entries, (3) every commit is the read of exactly one issued
// correct-path IQ copy of its Seq, at the cycle CommitCycles records,
// (4) the IQ's non-idle bit-cycles equal the occupancy integral exactly
// (the classes partition occupancy, nothing more or less), and (5) every
// derived AVF is a probability. res must carry its Trace (KeepTrace).
func traceConserved(res *core.Result, cfg pipeline.Config, commits uint64) error {
	tr := res.Trace
	// A degenerate run would pass every bound vacuously.
	if res.Cycles == 0 || res.Commits < commits {
		return fmt.Errorf("run made no progress: %d cycles, %d of %d commits",
			res.Cycles, res.Commits, commits)
	}

	// Shape and capacity: every interval lies forward in time with its read
	// inside it, and no structure integrates more entry-cycles than it has.
	n := cfg.Normalized()
	occ := make(map[string]uint64)
	for _, st := range []struct {
		name    string
		res     []pipeline.Residency
		entries int
	}{
		{"iq", tr.Residencies, n.IQSize},
		{"front-end", tr.FrontEnd, n.FrontEndCap()},
		{"store-buffer", tr.StoreBuffer, n.StoreBufferSize},
		{"rob", tr.ROB, n.ROBSize},
		{"lsq", tr.LSQ, n.LSQSize},
	} {
		var sum uint64
		for i := range st.res {
			r := &st.res[i]
			switch {
			case r.Evict < r.Enq:
				return fmt.Errorf("%s interval inverted: evict %d < enq %d (seq %d)",
					st.name, r.Evict, r.Enq, r.Inst.Seq)
			case r.Issued && (r.Issue < r.Enq || r.Issue > r.Evict):
				return fmt.Errorf("%s issue cycle %d outside residency [%d, %d] (seq %d)",
					st.name, r.Issue, r.Enq, r.Evict, r.Inst.Seq)
			}
			sum += r.Occupancy()
		}
		if cap := res.Cycles * uint64(st.entries); sum > cap {
			return fmt.Errorf("%s occupancy %d entry-cycles exceeds capacity %d (%d cycles × %d entries)",
				st.name, sum, cap, res.Cycles, st.entries)
		}
		occ[st.name] = sum
	}

	// Commits: each is the issue of exactly one correct-path IQ copy.
	if uint64(len(tr.CommitLog)) != res.Commits || len(tr.CommitCycles) != len(tr.CommitLog) {
		return fmt.Errorf("trace holds %d commits and %d commit cycles, run reports %d",
			len(tr.CommitLog), len(tr.CommitCycles), res.Commits)
	}
	bySeq := make(map[uint64]int, len(tr.CommitLog))
	for i := range tr.CommitLog {
		bySeq[tr.CommitLog[i].Seq] = i
	}
	matches := make([]int, len(tr.CommitLog))
	for i := range tr.Residencies {
		r := &tr.Residencies[i]
		if !r.Issued || r.Inst.WrongPath {
			continue
		}
		if j, ok := bySeq[r.Inst.Seq]; ok && r.Issue == tr.CommitCycles[j] {
			matches[j]++
		}
	}
	for i, m := range matches {
		if m != 1 {
			return fmt.Errorf("commit of seq %d at cycle %d matches %d issued correct-path IQ residencies, want 1",
				tr.CommitLog[i].Seq, tr.CommitCycles[i], m)
		}
	}

	// The IQ charges every occupied cycle of every interval to exactly one
	// class, so non-idle bit-cycles must equal the occupancy integral.
	rep := res.Report
	if nonIdle, want := rep.TotalBC()-rep.IdleBC, occ["iq"]*uint64(rep.BitsPer); nonIdle != want {
		return fmt.Errorf("iq non-idle bit-cycles %d != occupancy integral %d", nonIdle, want)
	}
	if err := reportConserved("iq", &aceReport{
		TotalBC: rep.TotalBC(), IdleBC: rep.IdleBC, NeverReadBC: rep.NeverReadBC,
		ExACEBC: rep.ExACEBC, ACEBC: rep.ACEBC, UnACETotalBC: rep.UnACETotalBC(),
		SDCAVF: rep.SDCAVF(), DUEAVF: rep.DUEAVF(), FalseDUEAVF: rep.FalseDUEAVF(),
	}); err != nil {
		return err
	}

	// The front end reads at delivery (no linger), so its classified
	// bit-cycles are bounded by — not equal to — the occupancy integral.
	fe := res.FrontEndReport
	if fe == nil {
		return fmt.Errorf("front-end analysis missing from result")
	}
	if nonIdle, bound := fe.TotalBC()-fe.IdleBC, occ["front-end"]*uint64(fe.BitsPer); nonIdle > bound {
		return fmt.Errorf("front-end non-idle bit-cycles %d exceed occupancy integral %d", nonIdle, bound)
	}
	if err := reportConserved("front-end", &aceReport{
		TotalBC: fe.TotalBC(), IdleBC: fe.IdleBC, NeverReadBC: fe.NeverReadBC,
		ExACEBC: fe.ExACEBC, ACEBC: fe.ACEBC, UnACETotalBC: fe.UnACETotalBC(),
		SDCAVF: fe.SDCAVF(), DUEAVF: fe.DUEAVF(), FalseDUEAVF: fe.FalseDUEAVF(),
	}); err != nil {
		return err
	}

	if res.StoreBufferReport == nil {
		return fmt.Errorf("store-buffer analysis missing from result")
	}
	return nil
}
