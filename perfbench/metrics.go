package main

import "runtime"

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// perLayer is every per-layer metric a traced run reports, named
// <module>.<metric> after the package whose public functions the span
// wraps. A layer a workload never calls reports 0. BENCHMARK.json lists the
// same names.
var perLayer = []metricDef{
	{"workload.decode_ms", "ms"},
	{"workload.decode_kinst", "kinst"},
	{"cache.warm_ms", "ms"},
	{"cache.warm_count", "count"},
	{"pipeline.cycle_ms", "ms"},
	{"pipeline.mcycles", "Mcycles"},
	{"pipeline.mcycles_per_s", "Mcycles/s"},
	{"pipeline.cycle_allocs", "count"},
	{"pipeline.solo_ms", "ms"},
	{"ace.events_ms", "ms"},
	{"ace.finish_ms", "ms"},
	{"ace.finish_allocs", "count"},
	{"ace.finish_mb", "MB"},
	{"fault.campaign_ms", "ms"},
	{"fault.strikes_per_s", "1/s"},
	{"static.analyze_ms", "ms"},
	{"static.queries", "count"},
	{"core.batch_ms", "ms"},
	{"core.residue_ms", "ms"},
	{"experiments.build_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"server.eval_handler_ms", "ms"},
	{"server.bound_handler_ms", "ms"},
	{"server.sweep_handler_ms", "ms"},
	{"server.jobs_handler_ms", "ms"},
	{"server.hit_ratio", "frac"},
	{"server.shed", "count"},
	{"server.queue_wait_ms", "ms"},
	{"sweep.cells", "count"},
	{"sweep.cell_ms", "ms"},
	{"fleet.lease_ms", "ms"},
	{"fleet.leases", "count"},
	{"fleet.retries", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.traced_wall_s", "s"},
	{"bench.cover_frac", "frac"},
	{"bench.spans", "count"},
}

// layerMetrics turns a finished trace and the counts gathered beside it
// into the per-layer metrics.
func layerMetrics(tr *tracer, c layerCounts, ms0 runtime.MemStats) map[string]float64 {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	spans := tr.snapshot()
	self, total := layerTimes(spans)
	m := map[string]float64{
		"workload.decode_ms":    self["workload.decode"],
		"workload.decode_kinst": float64(c.decodeInst) / 1000,
		"cache.warm_ms":         self["cache.warm"],
		"cache.warm_count":      float64(c.warmCount),
		"pipeline.cycle_ms":     self["pipeline.cycle"],
		"pipeline.mcycles":      float64(c.cycles) / 1e6,
		"pipeline.cycle_allocs": float64(c.cycleAllocs),
		"pipeline.solo_ms":      self["pipeline.solo"],
		"ace.events_ms":         self["ace.events"],
		"ace.finish_ms":         self["ace.finish"],
		"ace.finish_allocs":     float64(c.finishAllocs),
		"ace.finish_mb":         float64(c.finishBytes) / (1 << 20),
		"fault.campaign_ms":     self["fault.campaign"],
		"static.analyze_ms":     self["static.analyze"],
		"static.queries":        float64(c.staticQueries),
		"core.batch_ms":         total["core.batch"],
		"experiments.build_ms":  self["experiments.build"],
		"experiments.render_ms": self["experiments.render"],
		"sweep.cells":           float64(c.sweepCells),
		"fleet.lease_ms":        self["fleet.lease"],
		"runtime.alloc_mb":      float64(ms1.TotalAlloc-ms0.TotalAlloc+c.peer.AllocBytes) / (1 << 20),
		"runtime.gc_cycles":     float64(ms1.NumGC - ms0.NumGC + c.peer.NumGC),
		"runtime.gc_pause_ms":   float64(ms1.PauseTotalNs-ms0.PauseTotalNs+c.peer.PauseNs) / 1e6,
	}
	if ms := self["pipeline.cycle"]; ms > 0 {
		m["pipeline.mcycles_per_s"] = m["pipeline.mcycles"] / (ms / 1000)
	}
	if m["core.batch_ms"] > 0 {
		m["core.residue_ms"] = m["core.batch_ms"] - (m["workload.decode_ms"] + m["cache.warm_ms"] +
			m["pipeline.cycle_ms"] + m["ace.events_ms"] + m["ace.finish_ms"])
	}
	if c.campaignS > 0 {
		m["fault.strikes_per_s"] = c.strikes / c.campaignS
	}
	if c.sweepCells > 0 {
		m["sweep.cell_ms"] = total["sweep.grid"] / float64(c.sweepCells)
	}
	for _, r := range []string{"eval", "bound", "sweep", "jobs"} {
		m["server."+r+"_handler_ms"] = self["server."+r]
	}
	// The root span covers the whole traced run; its self time is the
	// harness's own work (checks, bookkeeping) outside every layer call.
	for i, s := range spans {
		if s.Parent == -1 && s.Name == "bench.run" && s.End >= 0 {
			wall := float64(s.End-s.Start) / 1e9
			m["bench.traced_wall_s"] = wall
			m["bench.cover_frac"] = 1 - float64(selfTimes(spans)[i])/1e9/wall
			m["bench.trace_overhead_frac"] = float64(len(spans)) * spanCost().Seconds() / wall
		}
	}
	m["bench.spans"] = float64(len(spans))
	for k, v := range c.extra {
		m[k] = v
	}
	return m
}
