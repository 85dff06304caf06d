package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"softerror/internal/core"
	"softerror/internal/experiments"
	"softerror/internal/report"
	"softerror/internal/spec"
)

// reproUnit regenerates one checked-in artefact of results/ in a fresh
// process, exactly as cmd/repro does at its defaults, and compares the
// bytes. The inputs are the artefact's: the seed changes nothing here.
type reproUnit struct {
	cfg     unitConfig
	ooo     bool
	names   []string
	benches []spec.Benchmark
	commits uint64
	strikes int
	// want is the artefact's checked-in bytes.
	want []byte
}

func newReproUnit(cfg unitConfig, ooo bool) unit {
	u := &reproUnit{cfg: cfg, ooo: ooo, benches: spec.All(), commits: core.DefaultCommits, strikes: 50_000}
	if ooo {
		u.names = []string{"table1", "structures"}
	} else {
		u.names = []string{"all"}
	}
	if cfg.Small {
		u.benches = u.benches[:2]
		u.commits = 5000
		u.strikes = 500
	}
	return u
}

func (u *reproUnit) setup() error {
	if u.want != nil {
		return nil
	}
	file := "repro_all.txt"
	if u.ooo {
		file = "repro_ooo.txt"
	}
	var err error
	u.want, err = os.ReadFile(filepath.Join(u.cfg.Root, "results", file))
	return err
}

func (u *reproUnit) close() {}

// params mirrors cmd/repro's flag defaults.
func (u *reproUnit) params() experiments.Params {
	suite := core.NewSuite(u.benches, u.commits)
	suite.OutOfOrder = u.ooo
	return experiments.Params{
		Suite: suite, Benches: u.benches, Commits: u.commits,
		PET: 512, RawFIT: 0.001, SimPoints: 4, Strikes: u.strikes, Seed: 1,
	}
}

func (u *reproUnit) run(tr *tracer) (*unitResult, error) {
	ctx := context.Background()
	res := &unitResult{}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.start("bench.run", -1, "")
	p := u.params()
	var buf bytes.Buffer
	t0 := time.Now()
	for _, name := range u.names {
		if tr == nil {
			if err := experiments.Run(ctx, &buf, name, p, false); err != nil {
				return nil, err
			}
			continue
		}
		// Traced: experiments.Run's own two steps, one span each.
		order := []string{name}
		if name == "all" {
			order = experiments.AllOrder
		}
		for _, n := range order {
			var t *report.Table
			var err error
			tr.do("experiments.build", root, func() { t, err = experiments.Build(ctx, n, p) })
			if err != nil {
				return nil, err
			}
			tr.do("experiments.render", root, func() { err = experiments.Emit(&buf, t, false) })
			if err != nil {
				return nil, err
			}
		}
	}
	res.JobS = []float64{time.Since(t0).Seconds()}
	res.PeakRSSMB = peakRSSMB()
	res.Attempted++
	if i := firstDiff(buf.Bytes(), u.want); i >= 0 {
		res.fail("regenerated artefact differs from results/ at byte %d of %d", i, len(u.want))
	}
	if tr == nil {
		return res, nil
	}
	d := &decomposer{tr: tr, parent: root}
	if err := u.decompose(ctx, d, res); err != nil {
		return nil, err
	}
	tr.end(root)
	res.Layers = layerMetrics(tr, d.counts, ms0)
	return res, nil
}

// decompose repeats, one layer call per span, the simulation work of the
// regeneration: every benchmark's batch waves as the suites request them,
// and for the in-order artefact the register-file study's solo runs and
// the outcomes fault campaign.
func (u *reproUnit) decompose(ctx context.Context, d *decomposer, res *unitResult) error {
	var waves [][]core.BatchSpec
	if u.ooo {
		// table1 and structures share one suite and one prewarm.
		waves = [][]core.BatchSpec{policySpecs(true, core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0)}
	} else {
		waves = [][]core.BatchSpec{
			// table1's prewarm, then the ablation's remaining throttles,
			// then the protection study's own suite.
			policySpecs(false, core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0),
			policySpecs(false, core.PolicyThrottleL1, core.PolicyThrottleL0),
			policySpecs(false, core.PolicyBaseline, core.PolicySquashL1),
		}
	}
	for _, b := range u.benches {
		bad, err := d.workloadBatches(ctx, b.Params, u.commits, waves)
		if err != nil {
			return err
		}
		res.Attempted += len(waves)
		for _, e := range bad {
			res.fail("%s", e)
		}
	}
	if u.ooo {
		return nil
	}
	for _, b := range u.benches {
		var err error
		d.tr.do("pipeline.solo", d.parent, func() {
			_, err = core.RunContext(ctx, core.Config{Workload: b.Params, Commits: u.commits, RegFile: true})
		})
		if err != nil {
			return err
		}
	}
	var err error
	t0 := time.Now()
	d.tr.do("fault.campaign", d.parent, func() {
		_, err = core.OutcomesCampaign(ctx, u.benches[0], u.commits, u.strikes, 1, 0, nil)
	})
	if err != nil {
		return err
	}
	_, cfgs := core.OutcomeConfigs(u.strikes, 1)
	d.counts.strikes = float64(u.strikes * len(cfgs))
	d.counts.campaignS = time.Since(t0).Seconds()
	return nil
}

// firstDiff is the first offset at which got and want differ, or -1.
func firstDiff(got, want []byte) int {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return n
	}
	return -1
}
