package ace

import "softerror/internal/pipeline"

// CollectorConfig parameterises a BatchCollector: the geometry of the
// structures under analysis plus which optional analyses to run. Geometry
// must match the pipeline configuration that drives the lane —
// StructureConfig derives it.
type CollectorConfig struct {
	IQSize         int
	FrontEndCap    int
	StoreBufferCap int
	// ROBSize and LSQSize enable the out-of-order structure analyses when
	// nonzero (they stay zero for the in-order family, whose runs emit no
	// ROB/LSQ events).
	ROBSize int
	LSQSize int
	// Commits pre-sizes the per-body-position records (0 if unknown).
	Commits uint64

	// FrontEnd, StoreBuffer and RegFile enable the corresponding extra
	// analyses; each costs one per-body-position array and some per-event
	// bookkeeping, so they are opt-in.
	FrontEnd    bool
	StoreBuffer bool
	RegFile     bool
}

// StructureConfig derives a collector's geometry from the pipeline
// configuration that will drive it. The optional analyses start disabled.
func StructureConfig(pcfg pipeline.Config, commits uint64) CollectorConfig {
	cfg := CollectorConfig{
		IQSize:         pcfg.IQSize,
		FrontEndCap:    pcfg.FrontEndCap(),
		StoreBufferCap: pcfg.StoreBufferSize,
		Commits:        commits,
	}
	if pcfg.OutOfOrder {
		n := pcfg.Normalized()
		cfg.ROBSize = n.ROBSize
		cfg.LSQSize = n.LSQSize
	}
	return cfg
}

// Reports bundles the analyses a collector produced from one lane. The
// optional reports are nil unless enabled in the CollectorConfig.
type Reports struct {
	IQ          *Report
	FrontEnd    *Report
	StoreBuffer *SBReport
	RegFile     *RegFileReport
	// ROB and LSQ are produced only for out-of-order runs (nonzero
	// ROBSize/LSQSize in the CollectorConfig).
	ROB  *Report
	LSQ  *LSQReport
	Dead *Deadness
}
