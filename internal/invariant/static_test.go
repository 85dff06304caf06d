package invariant

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"softerror/internal/rng"
	"softerror/internal/server"
)

// TestBoundServingMeter is the positive/negative pair for the serving
// leg of static-bounds. Positive: bound queries alone leave the server's
// meter still. Negative: an eval miss on the same server between the two
// queries simulates on that server's meter, and the check must report it
// — so a pass means the meter assertion is live, not vacuous. Both halves
// run while other goroutines simulate, which a process-wide counter would
// have counted.
func TestBoundServingMeter(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 3; seed++ {
		if err := boundServing(rng.New(seed, 0x57A7B), nil); err != nil {
			t.Errorf("positive, seed %d: %v", seed, err)
		}
	}

	evalMiss := func(srv *server.Server) error {
		rec := httptest.NewRecorder()
		body := `{"experiment":"table1","benches":["mcf"],"commits":2000}`
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("eval = %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	err := boundServing(rng.New(1, 0x57A7B), evalMiss)
	if err == nil || !strings.Contains(err.Error(), "moved mcycles_simulated") {
		t.Fatalf("negative: a simulation between the queries gave %v, want a moved-meter failure", err)
	}
}
