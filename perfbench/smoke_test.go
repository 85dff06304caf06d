package main

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"testing"

	"softerror/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// unit under test starts its server child from os.Executable.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// These smoke runs drive each workload's unit in this process at a tiny
// size, normal and traced, with every output check live; serve-mixed's
// server runs in a child process of the test binary, as it does in a run.

func smallConfig(seconds float64) unitConfig {
	return unitConfig{Root: "..", Seed: 7, Seconds: seconds, Small: true}
}

// reproReference is what the small repro unit must regenerate.
func reproReference(t *testing.T, u *reproUnit) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range u.names {
		if err := experiments.Run(context.Background(), &buf, name, u.params(), false); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func runUnit(t *testing.T, u unit, tr *tracer) *unitResult {
	t.Helper()
	if err := u.setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer u.close()
	res, err := u.run(tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func checkClean(t *testing.T, res *unitResult) {
	t.Helper()
	if res.Attempted == 0 || res.Failed != 0 || len(res.JobS) == 0 {
		t.Fatalf("attempted %d, failed %d (%v), %d job samples", res.Attempted, res.Failed, res.Errors, len(res.JobS))
	}
}

func checkLayers(t *testing.T, res *unitResult, nonzero ...string) {
	t.Helper()
	for _, m := range nonzero {
		if res.Layers[m] <= 0 {
			t.Errorf("traced run: %s = %g, want > 0", m, res.Layers[m])
		}
	}
	if f := res.Layers["bench.cover_frac"]; f < 0.5 || f > 1 {
		t.Errorf("layer spans cover %g of the traced wall time", f)
	}
}

func TestSmokeRepro(t *testing.T) {
	for _, ooo := range []bool{false, true} {
		u := newReproUnit(smallConfig(1), ooo).(*reproUnit)
		u.want = reproReference(t, u)
		checkClean(t, runUnit(t, u, nil))

		res := runUnit(t, u, newTracer())
		checkClean(t, res)
		checkLayers(t, res, "workload.decode_ms", "pipeline.cycle_ms", "ace.finish_ms", "core.batch_ms", "experiments.build_ms")
		if got := res.Layers["pipeline.solo_ms"] > 0; got == ooo {
			t.Errorf("ooo=%v: pipeline.solo_ms = %g", ooo, res.Layers["pipeline.solo_ms"])
		}
		if got := res.Layers["fault.campaign_ms"] > 0; got == ooo {
			t.Errorf("ooo=%v: fault.campaign_ms = %g", ooo, res.Layers["fault.campaign_ms"])
		}

		// A single wrong byte is caught and counted.
		u.want = append([]byte(nil), u.want...)
		u.want[len(u.want)/2] ^= 1
		if res := runUnit(t, u, nil); res.Failed != 1 {
			t.Errorf("ooo=%v: corrupted reference not caught: %+v", ooo, res)
		}
	}
}

func TestSmokeServeMixed(t *testing.T) {
	u := newServeUnit(smallConfig(1.5)).(*serveUnit)
	res := runUnit(t, u, nil)
	checkClean(t, res)
	for _, k := range []string{"eval_hit_ms", "eval_miss_ms", "bound_ms", "sweep_job_ms", "gen_late_ms"} {
		if len(res.Samples[k]) == 0 {
			t.Errorf("no %s samples", k)
		}
	}
	// The server runs in a process of its own at the host's GOMAXPROCS.
	if got := res.Detail["server_gomaxprocs"]; got != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("server GOMAXPROCS %g, want %d", got, runtime.GOMAXPROCS(0))
	}
	if res.PeakRSSMB <= 0 || res.Detail["miss_load"] <= 0 {
		t.Errorf("server peak RSS %g MB, miss load %g", res.PeakRSSMB, res.Detail["miss_load"])
	}
	// Zero is a valid outcome (the mixed phase itself not sustained, as
	// under the race detector); the figure must still be reported.
	if _, ok := res.Detail["sustained_rps"]; !ok {
		t.Error("no sustained_rps")
	}

	cfg := smallConfig(1.5)
	cfg.Traced = true
	tr := newTracer()
	res = runUnit(t, newServeUnit(cfg), tr)
	checkClean(t, res)
	checkLayers(t, res, "server.eval_handler_ms", "server.bound_handler_ms", "static.analyze_ms", "static.queries", "pipeline.cycle_ms", "sweep.cells")
	if res.Layers["fleet.lease_ms"] != 0 {
		t.Errorf("fleet.lease_ms = %g on a single server", res.Layers["fleet.lease_ms"])
	}
	// Server spans carry the client's request ID and hang under its span.
	byID := map[int]span{}
	for _, s := range tr.snapshot() {
		byID[s.ID] = s
	}
	linked := 0
	for _, s := range byID {
		if strings.HasPrefix(s.Name, "server.") && s.Parent >= 0 && byID[s.Parent].Req == s.Req && s.Req != "" {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no server span is linked to its client request")
	}
}

func TestServeCatchesWrongEvalBody(t *testing.T) {
	u := newServeUnit(smallConfig(1)).(*serveUnit)
	if err := u.setup(); err != nil {
		t.Fatal(err)
	}
	defer u.close()
	// Every hit must equal the body its key was first served with.
	u.hotBody[0] = append([]byte("x"), u.hotBody[0]...)
	res, err := u.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("a hit differing from its miss was not caught")
	}
}

func TestSmokeFleetSweep(t *testing.T) {
	res := runUnit(t, newFleetUnit(smallConfig(1)), nil)
	checkClean(t, res)
	res = runUnit(t, newFleetUnit(smallConfig(1)), newTracer())
	checkClean(t, res)
	checkLayers(t, res, "fleet.lease_ms", "fleet.leases", "sweep.cells", "sweep.cell_ms")
	if res.Layers["static.analyze_ms"] != 0 {
		t.Errorf("static.analyze_ms = %g on the fleet", res.Layers["static.analyze_ms"])
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, b := newServePlan(3, 4, false), newServePlan(3, 4, false)
	if len(a.mixed) != len(b.mixed) || keyString(a.misses[0]) != keyString(b.misses[0]) || a.bounds[5] != b.bounds[5] {
		t.Error("the same seed gave different serve-mixed inputs")
	}
	if c := newServePlan(4, 4, false); keyString(c.misses[0]) == keyString(a.misses[0]) && c.bounds[5] == a.bounds[5] {
		t.Error("another seed gave the same serve-mixed inputs")
	}
	seen := map[string]bool{}
	for _, k := range append(a.hot, a.misses...) {
		if seen[keyString(k)] {
			t.Fatalf("eval key %s drawn twice: a miss would be a hit", keyString(k))
		}
		seen[keyString(k)] = true
	}
	if g1, g2 := fleetGrids(3, 5, false), fleetGrids(3, 5, false); len(g1) != 5 || g1[4].Commits != g2[4].Commits {
		t.Error("the same seed gave different fleet grids")
	}
}
