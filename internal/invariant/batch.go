package invariant

import (
	"context"
	"fmt"
	"reflect"

	"softerror/internal/core"
	"softerror/internal/rng"
)

// checkBatchedIndependent pins that lanes sharing one stream and one
// deadness analysis do not interfere, on randomised inputs: K random
// configurations evaluated over one decode of a random workload's stream
// (core.RunBatchContext) must produce Results equal — reports, deadness,
// stats, everything — to K independent core.RunContext runs, each a
// one-lane batch on a fresh arena. The batch width, each lane's geometry
// and each lane's optional analyses all vary per seed.
func checkBatchedIndependent(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xBA7C)
	params := RandomWorkload(s)
	k := 2 + s.Intn(4)
	specs := make([]core.BatchSpec, k)
	for i := range specs {
		specs[i] = core.BatchSpec{
			Pipeline:    RandomPipelineConfig(s),
			FrontEnd:    s.Bool(0.5),
			StoreBuffer: s.Bool(0.5),
		}
	}

	batched, err := core.RunBatchContext(context.Background(), params, opt.Commits, specs)
	if err != nil {
		return err
	}
	for i, sp := range specs {
		one, err := core.RunContext(context.Background(), core.Config{
			Workload:    params,
			Pipeline:    sp.Pipeline,
			Commits:     opt.Commits,
			FrontEnd:    sp.FrontEnd,
			StoreBuffer: sp.StoreBuffer,
		})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(one, batched[i]) {
			return fmt.Errorf("batched lane %d of %d diverges from its independent run "+
				"(one-lane IPC=%.6f SDC=%.6f cycles=%d; batched IPC=%.6f SDC=%.6f cycles=%d; cfg=%+v)",
				i, k, one.IPC, one.Report.SDCAVF(), one.Cycles,
				batched[i].IPC, batched[i].Report.SDCAVF(), batched[i].Cycles, sp.Pipeline)
		}
	}
	return nil
}
