package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"softerror/internal/fleet"
	"softerror/internal/server"
	"softerror/internal/spec"
)

// fleetWorkers is the fleet-sweep worker count; each worker daemon runs
// one simulation worker, so the two share the host's cores the way two
// single-core machines would share a job.
const fleetWorkers = 2

// fleetUnit is a fleet coordinator (fleet.NewCoordinator behind
// server.New) and its worker daemons, all in process on loopback, with a
// client submitting one sweep grid at a time over HTTP.
type fleetUnit struct {
	cfg     unitConfig
	grids   []server.SweepRequest
	co      *fleet.Coordinator
	coord   *apiClient
	coSrv   *server.Server
	coHS    *http.Server
	workers []*server.Server
	whs     []*http.Server
	tr      atomic.Pointer[tracer]
}

// fleetGrids draws the run's sweep grids from the seed: four benchmarks,
// two policies and two IQ sizes — 16 cells, so the coordinator's default
// 4-cell leases give each worker two — at a seeded commit count.
// Benchmarks and commit counts come from decks, so every run covers the
// roster evenly, and every grid is distinct, so no submission is answered
// from the job table.
func fleetGrids(seed uint64, n int, small bool) []server.SweepRequest {
	r := rand.New(rand.NewSource(int64(seed)))
	roster := spec.All()
	benches, commits := newDeck(r, len(roster)), newDeck(r, 11)
	out := make([]server.SweepRequest, n)
	for i := range out {
		sr := server.SweepRequest{
			Policies: []string{"baseline", "squash-l1"},
			IQSizes:  []int{32, 64},
			Commits:  uint64(30000 + 1000*commits.draw() + i),
		}
		if small {
			sr.Commits /= 10
		}
		for _, b := range benches.drawDistinct(4) {
			sr.Benches = append(sr.Benches, roster[b].Name)
		}
		out[i] = sr
	}
	return out
}

func newFleetUnit(cfg unitConfig) unit {
	// More grids than any run can submit; the run stops when its seconds
	// are spent.
	return &fleetUnit{cfg: cfg, grids: fleetGrids(cfg.Seed, 64+int(cfg.Seconds)*4, cfg.Small)}
}

func (u *fleetUnit) setup() error {
	u.co = fleet.NewCoordinator(fleet.Config{})
	for i := 0; i < fleetWorkers; i++ {
		w := server.New(server.Config{Workers: 1})
		hs, addr, err := startServer(traceHandler(&u.tr, w))
		if err != nil {
			return err
		}
		u.workers = append(u.workers, w)
		u.whs = append(u.whs, hs)
		if err := u.co.Register(addr); err != nil {
			return err
		}
	}
	u.coord = &apiClient{client: &http.Client{}, streams: &http.Client{}}
	u.coSrv = server.New(server.Config{Fleet: u.co})
	var addr string
	var err error
	u.coHS, addr, err = startServer(traceHandler(&u.coord.tr, u.coSrv))
	if err != nil {
		return err
	}
	u.coord.base = "http://" + addr
	// Warm-up job: a daemon pays its lazy set-up (warmed cache snapshot,
	// connections) once per start, before serving.
	warm := server.SweepRequest{Benches: []string{"mcf"}, Policies: []string{"baseline"}, IQSizes: []int{32, 64}, Commits: 2000}
	if run := u.coord.submitSweep(warm, time.Now(), -1); run.err != nil {
		return fmt.Errorf("warm-up sweep: %w", run.err)
	}
	return nil
}

func (u *fleetUnit) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	u.coHS.Shutdown(ctx)
	u.coSrv.Drain(ctx)
	u.coSrv.Close()
	u.coord.closeIdle()
	for i, w := range u.workers {
		u.whs[i].Shutdown(ctx)
		w.Drain(ctx)
		w.Close()
	}
	u.co.Close()
}

func (u *fleetUnit) run(tr *tracer) (*unitResult, error) {
	ctx := context.Background()
	res := &unitResult{Detail: map[string]float64{}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.start("bench.run", -1, "")
	u.tr.Store(tr)
	u.coord.tr.Store(tr)
	snap0 := u.co.Snapshot()
	start := time.Now()
	var runs []sweepRun
	for i := 0; i < len(u.grids) && (i == 0 || time.Since(start).Seconds() < u.cfg.Seconds); i++ {
		job := tr.start("bench.job", root, fmt.Sprintf("grid%d", i))
		runs = append(runs, u.coord.submitSweep(u.grids[i], time.Now(), job))
		tr.end(job)
	}
	snap1 := u.co.Snapshot()
	res.PeakRSSMB = peakRSSMB()
	u.tr.Store(nil)
	u.coord.tr.Store(nil)

	var waitMs []float64
	for _, r := range runs {
		res.Attempted++
		if r.err != nil {
			res.fail("fleet sweep %s: %v", r.id, r.err)
			continue
		}
		res.JobS = append(res.JobS, r.jobDur.Seconds())
		waitMs = append(waitMs, float64(r.queueWait)/1e6)
	}
	counts := layerCounts{}
	vroot := tr.start("bench.verify", root, "")
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		want, cells, err := localGridCSV(ctx, tr, vroot, r.req, 0)
		if err != nil {
			return nil, err
		}
		counts.sweepCells += cells
		if !bytes.Equal(r.csv, want) {
			res.fail("fleet sweep %s (%s): CSV differs from a local sweep.Grid run", r.id, strings.Join(r.req.Benches, ","))
		}
	}
	tr.end(vroot)
	leases := float64(snap1.LeasesDispatched - snap0.LeasesDispatched)
	retries := float64(snap1.LeaseRetries - snap0.LeaseRetries)
	res.Samples = map[string][]float64{"sweep_job_ms": scale(res.JobS, 1000)}
	res.Detail["leases"] = leases
	res.Detail["lease_retries"] = retries
	if tr == nil {
		return res, nil
	}
	tr.end(root)
	counts.extra = map[string]float64{
		"fleet.leases":         leases,
		"fleet.retries":        retries,
		"server.queue_wait_ms": median(waitMs),
	}
	res.Layers = layerMetrics(tr, counts, ms0)
	return res, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
