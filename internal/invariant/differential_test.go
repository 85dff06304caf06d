package invariant

import (
	"testing"

	"softerror/internal/pipeline"
)

// shiftEvict passes a lane's events on unchanged except one: the first IQ
// residency closes one cycle late.
type shiftEvict struct {
	pipeline.BatchSink
	shifted bool
}

func (s *shiftEvict) BatchResidency(ref pipeline.BatchRef, seq, enq, issue, evict uint64, issued, squashed bool) {
	if !s.shifted {
		s.shifted = true
		evict++
	}
	s.BatchSink.BatchResidency(ref, seq, enq, issue, evict, issued, squashed)
}

func (s *shiftEvict) BatchROB(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	if o, ok := s.BatchSink.(pipeline.BatchOOOSink); ok {
		o.BatchROB(ref, seq, enq, evict, read)
	}
}

func (s *shiftEvict) BatchLSQ(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	if o, ok := s.BatchSink.(pipeline.BatchOOOSink); ok {
		o.BatchLSQ(ref, seq, enq, evict, read)
	}
}

func perturb(bs pipeline.BatchSink) pipeline.BatchSink { return &shiftEvict{BatchSink: bs} }

// TestDifferentialChecksCatchPerturbedLane is the positive/negative pair
// for the two checks that compare the production lane with the reference
// interpreter. Positive: the unperturbed lane passes. Negative: the same
// seeds with one residency's eviction delayed by a cycle must fail, so a
// pass means the comparison is live, not vacuous. The seeds cover both
// core families.
func TestDifferentialChecksCatchPerturbedLane(t *testing.T) {
	opt := Options{Commits: 2000}
	for _, c := range []struct {
		name string
		run  func(uint64, Options, laneWrap) error
	}{
		{"trace-differential", traceDifferential},
		{"stream-batch", streamBatch},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 4; seed++ {
				if err := c.run(seed, opt, nil); err != nil {
					t.Errorf("positive, seed %d: %v", seed, err)
				}
				if err := c.run(seed, opt, perturb); err == nil {
					t.Errorf("negative, seed %d: a lane with a shifted eviction passed", seed)
				}
			}
		})
	}
}
