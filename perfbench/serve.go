package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softerror/internal/core"
	"softerror/internal/experiments"
	"softerror/internal/pipeline"
	"softerror/internal/server"
	"softerror/internal/spec"
	"softerror/internal/static"
	"softerror/internal/sweep"
)

// The serve-mixed traffic mix, per second of the mixed phase. The mix is
// assumed: no record of real seratd traffic exists to take it from. It
// follows a rule instead. Misses (tens of ms each) come at a rate that
// keeps the server about a third busy with them alone on a 2-core host
// (missLoad, reported with every run); hits come 15 times as often, an
// eval hit ratio of 94%; bound queries, served statically, 5 times as
// often; and one small sweep job every sweepEvery. At these rates
// admission (4 evals in flight) sheds nothing on a 2-core host, so a shed
// at this commit is a regression. The rates are constants rather than
// derived from a measurement at run time, so that a seed alone fixes a
// run's inputs and two commits are offered the same load.
const (
	hitRate    = 120.0
	boundRate  = 40.0
	missRate   = 8.0
	sweepEvery = 2500 * time.Millisecond
	hotKeys    = 9 // three per miss shape
	boundKeys  = 24
	// stepLimit is the latency every eval miss of a stepped-rate phase
	// step must meet, from when it was due, for the step to count as
	// sustained.
	stepLimit = 500 * time.Millisecond
	// mixedShare is the part of the run's seconds spent in the mixed
	// phase; the rest goes to the stepped-rate phase.
	mixedShare = 0.85
)

// missLoad is the share of the mixed phase's time the server would spend
// on eval misses alone, if each took as long as a hot key took to compute
// on the idle server during set-up (warmMs) and none overlapped.
func missLoad(warmMs []float64) float64 {
	if len(warmMs) == 0 {
		return 0
	}
	sum := 0.0
	for _, ms := range warmMs {
		sum += ms
	}
	return missRate * sum / float64(len(warmMs)) / 1000
}

// stepScales multiply the mixed phase's rates; the mixed phase itself is
// step 1.
var stepScales = []float64{2, 4, 8}

// evalKey is one /v1/eval request of the mix.
type evalKey = server.EvalRequest

func keyString(k evalKey) string {
	return fmt.Sprintf("%s|%s|%d", k.Experiment, strings.Join(k.Benches, ","), k.Commits)
}

// servePlan is every input of a serve-mixed run, generated from the seed.
type servePlan struct {
	hot    []evalKey
	misses []evalKey // consumed in order; every key is distinct
	bounds []string  // query strings for /v1/bound
	sweeps []server.SweepRequest
	mixed  []arrival
	steps  [][]arrival
}

// deck deals 0..n-1 in a seeded order, reshuffling after each pass, so a
// run draws every value equally often and the seed decides only the order
// and the pairings. Stratified draws keep a run's cost mix the same from
// seed to seed, which is what lets runs with different seeds agree.
type deck struct {
	r     *rand.Rand
	cards []int
	next  int
}

func newDeck(r *rand.Rand, n int) *deck {
	d := &deck{r: r, cards: make([]int, n)}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next%len(d.cards) == 0 {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next%len(d.cards)]
	d.next++
	return c
}

// drawDistinct draws k different values.
func (d *deck) drawDistinct(k int) []int {
	var out []int
	for len(out) < k {
		c := d.draw()
		dup := false
		for _, x := range out {
			dup = dup || x == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// missShapes are the eval-miss experiments with their benchmark counts,
// sized so that every miss simulates three (benchmark, policy) cells:
// table1 runs three policies on one benchmark, fig2 and breakdown one
// policy on three. Misses of one size keep the miss-latency median a
// property of the server rather than of which keys a seed happened to
// draw.
var missShapes = []struct {
	experiment string
	benches    int
}{{"table1", 1}, {"fig2", 3}, {"breakdown", 3}}

// commitSteps is the number of commit counts a miss may take: 20k to 50k
// in steps of 1000.
const commitSteps = 31

// keyGen deals eval keys from a deck of every (shape, commit count) pair,
// so each run's misses hold the same shapes and commit counts and the seed
// decides their order and their benchmarks, dealt from a deck of the
// roster.
type keyGen struct {
	roster  []spec.Benchmark
	pairs   *deck
	benches *deck
	seen    map[string]bool
	small   bool
}

func newKeyGen(r *rand.Rand, seen map[string]bool, small bool) *keyGen {
	roster := spec.All()
	return &keyGen{roster: roster, pairs: newDeck(r, len(missShapes)*commitSteps),
		benches: newDeck(r, len(roster)), seen: seen, small: small}
}

func (g *keyGen) key() evalKey {
	for {
		if k, ok := g.keyAt(g.pairs.draw()); ok {
			return k
		}
	}
}

// keyAt is the key of (shape, commit count) pair p with benchmarks dealt
// from the deck, unless an earlier key drew the same benchmarks.
func (g *keyGen) keyAt(p int) (evalKey, bool) {
	shape := missShapes[p%len(missShapes)]
	k := evalKey{Experiment: shape.experiment, Commits: uint64(20000 + 1000*(p/len(missShapes)))}
	if g.small {
		k.Commits /= 10
	}
	for _, i := range g.benches.drawDistinct(shape.benches) {
		k.Benches = append(k.Benches, g.roster[i].Name)
	}
	s := keyString(k)
	if g.seen[s] {
		return k, false
	}
	g.seen[s] = true
	return k, true
}

// schedule lays out dur of the mix at the given rate scale, starting at
// offset 0. Inter-arrival gaps are the mean gap jittered by ±50% from the
// seed: open-loop and seeded, without the bursts a Poisson process would
// put into a run this short.
func schedule(r *rand.Rand, dur time.Duration, scale float64, withSweeps bool) []arrival {
	var out []arrival
	add := func(kind string, rate float64) {
		gap := float64(time.Second) / (rate * scale)
		for t := gap * r.Float64(); t < float64(dur); t += gap * (0.5 + r.Float64()) {
			out = append(out, arrival{Due: time.Duration(t), Kind: kind})
		}
	}
	add("hit", hitRate)
	add("bound", boundRate)
	add("miss", missRate)
	if withSweeps {
		for t := sweepEvery / 5; t < dur; t += sweepEvery {
			out = append(out, arrival{Due: t, Kind: "sweep"})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

func newServePlan(seed uint64, seconds float64, small bool) servePlan {
	r := rand.New(rand.NewSource(int64(seed)))
	// Hot keys and misses come from decks of their own, so the misses of
	// every run deal from whole decks; the shared seen set keeps every key
	// distinct, so no miss is a hit.
	seen := map[string]bool{}
	hot := newKeyGen(r, seen, small)
	var p servePlan
	// The hot keys are every shape at 25k, 35k and 45k commits, so
	// warming them (set-up time) costs about the same at every seed; the
	// seed picks their benchmarks. The nine pairs differ, so no key
	// repeats.
	for i := 0; i < hotKeys; i++ {
		k, _ := hot.keyAt((5+10*(i/len(missShapes)))*len(missShapes) + i%len(missShapes))
		p.hot = append(p.hot, k)
	}
	g := newKeyGen(r, seen, small)
	pols := []string{"baseline", "squash-l1", "squash-l0", "throttle-l1", "throttle-l0"}
	bench, pol, iq, commits := newDeck(r, len(g.roster)), newDeck(r, len(pols)), newDeck(r, 4), newDeck(r, 4)
	for i := 0; i < boundKeys; i++ {
		q := url.Values{}
		q.Set("bench", g.roster[bench.draw()].Name)
		q.Set("policy", pols[pol.draw()])
		q.Set("iqsize", strconv.Itoa(16<<iq.draw()))
		q.Set("commits", strconv.Itoa(20000+10000*commits.draw()))
		p.bounds = append(p.bounds, q.Encode())
	}
	total := time.Duration(seconds * float64(time.Second))
	mixed := time.Duration(float64(total) * mixedShare)
	p.mixed = schedule(r, mixed, 1, true)
	stepDur := (total - mixed) / time.Duration(len(stepScales))
	for _, s := range stepScales {
		p.steps = append(p.steps, schedule(r, stepDur, s, false))
	}
	// Bind each arrival to its key now, so the run's inputs are fixed by
	// the seed before anything is measured.
	sweepCommits := newDeck(r, 11)
	bind := func(as []arrival) {
		for i := range as {
			switch as[i].Kind {
			case "hit":
				as[i].Key = r.Intn(len(p.hot))
			case "bound":
				as[i].Key = r.Intn(len(p.bounds))
			case "miss":
				as[i].Key = len(p.misses)
				p.misses = append(p.misses, g.key())
			case "sweep":
				// Distinct benchmarks from the deck and distinct commit
				// counts: no submission is deduplicated.
				as[i].Key = len(p.sweeps)
				sr := server.SweepRequest{
					Benches:  []string{g.roster[bench.draw()].Name},
					Policies: []string{"baseline", "squash-l1"},
					IQSizes:  []int{32, 64},
					Commits:  uint64(20000 + 1000*sweepCommits.draw() + len(p.sweeps)),
				}
				if small {
					sr.Commits /= 10
				}
				p.sweeps = append(p.sweeps, sr)
			}
		}
	}
	bind(p.mixed)
	for _, st := range p.steps {
		bind(st)
	}
	return p
}

// apiClient is the benchmark's HTTP client of one server. It stamps every
// request with an ID and, in a traced run, the client span the server's
// handler span hangs under.
type apiClient struct {
	base   string
	client *http.Client
	// streams follows sweep job event streams on connections of its own,
	// so the load's connection budget goes to the mix.
	streams *http.Client
	tr      atomic.Pointer[tracer]
	reqSeq  atomic.Int64
}

func (d *apiClient) closeIdle() {
	d.client.CloseIdleConnections()
	d.streams.CloseIdleConnections()
}

// serveUnit is one seratd, in a child process of its own behind a real
// loopback listener, and the open-loop client in this process that drives
// it.
type serveUnit struct {
	apiClient
	cfg     unitConfig
	plan    servePlan
	proc    *serverProc
	hotBody [][]byte
	// warmMs is how long each hot key took to compute during set-up, one
	// at a time on an idle server.
	warmMs []float64
}

func newServeUnit(cfg unitConfig) unit {
	return &serveUnit{cfg: cfg, plan: newServePlan(cfg.Seed, cfg.Seconds, cfg.Small)}
}

// traceHandler wraps a handler with one span per request, named after the
// route family and carrying the client's request ID and parent span.
func traceHandler(cur *atomic.Pointer[tracer], h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := cur.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		if err != nil {
			parent = -1
		}
		id := t.start(routeSpan(r.URL.Path), parent, r.Header.Get("X-Request-ID"))
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

func routeSpan(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/eval"):
		return "server.eval"
	case strings.HasPrefix(path, "/v1/bound"):
		return "server.bound"
	case strings.HasPrefix(path, "/v1/sweep"):
		return "server.sweep"
	case strings.HasPrefix(path, "/v1/lease"):
		return "fleet.lease"
	case strings.HasPrefix(path, "/v1/jobs"):
		return "server.jobs"
	default:
		return "server.other"
	}
}

// startServer serves h on a fresh loopback listener.
func startServer(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, ln.Addr().String(), nil
}

func (u *serveUnit) setup() error {
	var err error
	if u.proc, err = startServerProc(u.cfg.Traced); err != nil {
		return err
	}
	u.base = "http://" + u.proc.hello.Addr
	n := runtime.NumCPU()
	u.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	u.streams = &http.Client{Transport: &http.Transport{}}
	// Warm the hot key set: each is a miss now and a hit in the run.
	for _, k := range u.plan.hot {
		t0 := time.Now()
		st, xc, body, err := u.eval(k, -1)
		if err != nil {
			return err
		}
		if st != http.StatusOK || xc != "miss" {
			return fmt.Errorf("warming %s: status %d, X-Cache %q", keyString(k), st, xc)
		}
		u.warmMs = append(u.warmMs, float64(time.Since(t0))/1e6)
		u.hotBody = append(u.hotBody, body)
	}
	return nil
}

func (u *serveUnit) close() {
	if u.client != nil {
		u.closeIdle()
	}
	if u.proc != nil {
		u.proc.stop()
	}
}

// do sends one request, stamping the request ID and the client span so
// the server-side span links to it.
func (d *apiClient) do(c *http.Client, req *http.Request, parent int) (*http.Response, error) {
	rid := fmt.Sprintf("r%d", d.reqSeq.Add(1))
	req.Header.Set("X-Request-ID", rid)
	if t := d.tr.Load(); t != nil {
		id := t.start("bench.request", parent, rid)
		defer t.end(id)
		req.Header.Set("X-Bench-Span", strconv.Itoa(id))
	}
	return c.Do(req)
}

func (d *apiClient) get(path string, parent int) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, "", nil, err
	}
	return d.roundTrip(d.client, req, parent)
}

func (d *apiClient) post(path string, v any, parent int) (int, string, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, "", nil, err
	}
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.roundTrip(d.client, req, parent)
}

func (d *apiClient) roundTrip(c *http.Client, req *http.Request, parent int) (int, string, []byte, error) {
	resp, err := d.do(c, req, parent)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

func (d *apiClient) eval(k evalKey, parent int) (int, string, []byte, error) {
	return d.post("/v1/eval", k, parent)
}

// sweepRun is one sweep job as the client saw it, times from when the
// submission was due.
type sweepRun struct {
	req               server.SweepRequest
	id                string
	status            int
	state             string
	queueWait, jobDur time.Duration
	csv               []byte
	err               error
}

// submitSweep posts a sweep, follows its event stream to a terminal state
// and fetches the CSV.
func (d *apiClient) submitSweep(sr server.SweepRequest, due time.Time, parent int) sweepRun {
	run := sweepRun{req: sr}
	st, _, body, err := d.post("/v1/sweep", sr, parent)
	run.status = st
	if err != nil || st != http.StatusAccepted {
		run.err = fmt.Errorf("submit: status %d: %v %s", st, err, body)
		return run
	}
	var acc server.SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		run.err = err
		return run
	}
	run.id = acc.ID
	accepted := time.Now()
	req, err := http.NewRequest(http.MethodGet, d.base+"/v1/jobs/"+acc.ID+"/events", nil)
	if err != nil {
		run.err = err
		return run
	}
	resp, err := d.do(d.streams, req, parent)
	if err != nil {
		run.err = err
		return run
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			run.err = err
			break
		}
		if ev.State == server.JobRunning && run.queueWait == 0 {
			run.queueWait = time.Since(accepted)
		}
		run.state = string(ev.State)
		if ev.State == server.JobDone || ev.State == server.JobFailed || ev.State == server.JobInterrupted {
			break
		}
	}
	resp.Body.Close()
	run.jobDur = time.Since(due)
	if run.err == nil && run.state == string(server.JobDone) {
		st, _, run.csv, run.err = d.get("/v1/jobs/"+acc.ID+"/csv", parent)
		if run.err == nil && st != http.StatusOK {
			run.err = fmt.Errorf("csv: status %d", st)
		}
	}
	return run
}

// phaseResult collects one phase's observations.
type phaseResult struct {
	outs      []outcome
	hitMs     []float64
	missMs    []float64
	boundMs   []float64
	sweeps    []sweepRun
	missBody  map[int][]byte
	boundBody map[int][][]byte
	failed    []string
	shed      int
}

// runPhase drives one open-loop schedule against the server and checks
// every response it can check on the spot.
func (u *serveUnit) runPhase(as []arrival, parent int) *phaseResult {
	pr := &phaseResult{missBody: map[int][]byte{}, boundBody: map[int][][]byte{}}
	var mu sync.Mutex
	failf := func(format string, args ...any) {
		mu.Lock()
		pr.failed = append(pr.failed, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	start := time.Now()
	pr.outs = runOpenLoop(start, as, func(a arrival) int {
		switch a.Kind {
		case "hit":
			st, xc, body, err := u.eval(u.plan.hot[a.Key], parent)
			if err == nil && st == http.StatusOK && (xc != "hit" || !bytes.Equal(body, u.hotBody[a.Key])) {
				failf("eval hit %s: X-Cache %q, body equal to its miss: %v", keyString(u.plan.hot[a.Key]), xc, bytes.Equal(body, u.hotBody[a.Key]))
			}
			return status(st, err)
		case "miss":
			st, _, body, err := u.eval(u.plan.misses[a.Key], parent)
			if err == nil && st == http.StatusOK {
				mu.Lock()
				pr.missBody[a.Key] = body
				mu.Unlock()
			}
			return status(st, err)
		case "bound":
			st, _, body, err := u.get("/v1/bound?"+u.plan.bounds[a.Key], parent)
			if err == nil && st == http.StatusOK {
				mu.Lock()
				pr.boundBody[a.Key] = append(pr.boundBody[a.Key], body)
				mu.Unlock()
			}
			return status(st, err)
		case "sweep":
			run := u.submitSweep(u.plan.sweeps[a.Key], start.Add(a.Due), parent)
			mu.Lock()
			pr.sweeps = append(pr.sweeps, run)
			mu.Unlock()
			if run.err != nil {
				failf("sweep %s: %v", run.id, run.err)
			}
			return run.status
		}
		return 0
	})
	for _, o := range pr.outs {
		ms := float64(o.Latency) / 1e6
		switch o.Kind {
		case "hit":
			pr.hitMs = append(pr.hitMs, ms)
		case "miss":
			pr.missMs = append(pr.missMs, ms)
		case "bound":
			pr.boundMs = append(pr.boundMs, ms)
		}
		if o.Status == http.StatusTooManyRequests {
			pr.shed++
		}
		if o.Status < 200 || o.Status > 299 {
			failf("%s request: status %d", o.Kind, o.Status)
		}
	}
	return pr
}

// rssWindow is the window the server's peak RSS is read over during the
// mixed phase: one sweep period, so every window holds one sweep job.
const rssWindow = sweepEvery

// rssWindows reads the server's peak RSS at the end of every rssWindow
// until the returned function is called, which returns the readings. A
// daemon's whole-run peak hangs on how many computations happen to
// overlap once; the median of per-window peaks is what serving the mix
// holds, and moves with the memory each computation takes.
func (u *serveUnit) rssWindows() func() []float64 {
	stop, done := make(chan struct{}), make(chan []float64)
	go func() {
		var peaks []float64
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- peaks
				return
			case <-t.C:
				if mb, err := u.proc.rss(); err == nil {
					peaks = append(peaks, mb)
				}
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// status folds a transport error into a status of 0.
func status(st int, err error) int {
	if err != nil {
		return 0
	}
	return st
}

// sustained reports whether a step kept every eval miss within stepLimit
// of when it was due, shed nothing, and left no backlog: every request
// finished within stepLimit of the step's last arrival.
func sustained(pr *phaseResult) bool {
	if len(pr.outs) == 0 || len(pr.failed) > 0 {
		return false
	}
	last := pr.outs[len(pr.outs)-1].Due
	for _, o := range pr.outs {
		if o.Kind == "miss" && o.Latency > stepLimit {
			return false
		}
		if o.Due+o.Latency > last+stepLimit {
			return false
		}
	}
	return true
}

func (d *apiClient) counters(parent int) map[string]float64 {
	out := map[string]float64{}
	st, _, body, err := d.get("/metrics", parent)
	if err != nil || st != http.StatusOK {
		return out
	}
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return out
	}
	for _, k := range []string{"cache_hits", "cache_misses", "rejected"} {
		if v, ok := m[k].(float64); ok {
			out[k] = v
		}
	}
	return out
}

func (u *serveUnit) run(tr *tracer) (*unitResult, error) {
	ctx := context.Background()
	res := &unitResult{Detail: map[string]float64{}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.start("bench.run", -1, "")
	s0, err := u.proc.stats()
	if err != nil {
		return nil, err
	}
	u.tr.Store(tr)
	// Phase spans account for the open loop's idle gaps: their self time
	// is time with no request in flight.
	c0 := u.counters(root)
	// Start the first RSS window: set-up's peak is not the mix's.
	if _, err := u.proc.rss(); err != nil {
		return nil, err
	}
	windows := u.rssWindows()
	phase := tr.start("bench.mixed", root, "")
	mixed := u.runPhase(u.plan.mixed, phase)
	tr.end(phase)
	peaks := windows()
	c1 := u.counters(root)
	if len(peaks) == 0 {
		mb, err := u.proc.rss()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, mb)
	}
	res.PeakRSSMB = median(peaks)
	rate := float64(len(u.plan.mixed)) / (u.cfg.Seconds * mixedShare)
	best := 0.0
	if sustained(mixed) {
		best = rate
	}
	var steps []*phaseResult
	stepShed := 0
	for i, as := range u.plan.steps {
		phase := tr.start("bench.step", root, "")
		pr := u.runPhase(as, phase)
		tr.end(phase)
		steps = append(steps, pr)
		stepShed += pr.shed
		if best < rate || !sustained(pr) {
			break
		}
		best = rate * stepScales[i]
	}
	u.tr.Store(nil)

	// Failures of the mixed phase count; the stepped phase probes
	// capacity, so its sheds mark a failed step, not a wrong answer.
	res.Attempted += len(mixed.outs)
	for _, f := range mixed.failed {
		res.fail("%s", f)
	}
	res.JobS = scale(mixed.missMs, 1e-3)

	var jobMs, waitMs []float64
	for _, s := range mixed.sweeps {
		if s.err == nil {
			jobMs = append(jobMs, float64(s.jobDur)/1e6)
			waitMs = append(waitMs, float64(s.queueWait)/1e6)
		}
	}
	res.Samples = map[string][]float64{
		"eval_hit_ms":   mixed.hitMs,
		"eval_miss_ms":  mixed.missMs,
		"bound_ms":      mixed.boundMs,
		"sweep_job_ms":  jobMs,
		"queue_wait_ms": waitMs,
		"gen_late_ms":   latenessMs(mixed.outs),
	}
	res.Detail["mixed_rps"] = rate
	res.Detail["sustained_rps"] = best
	res.Detail["sustained_limit_ms"] = float64(stepLimit) / 1e6
	res.Detail["step_shed"] = float64(stepShed)

	res.Detail["server_gomaxprocs"] = float64(u.proc.hello.GOMAXPROCS)
	res.Detail["miss_load"] = missLoad(u.warmMs)
	res.Samples["warm_miss_ms"] = u.warmMs
	res.Samples["rss_window_mb"] = peaks
	// The server's handler spans and runtime figures, for a traced run.
	s2, err := u.proc.stats()
	if err != nil {
		return nil, err
	}
	tr.adopt(s2.Spans)

	// Output checks, after the measured phases.
	vroot := tr.start("bench.verify", root, "")
	all := append([]*phaseResult{mixed}, steps...)
	// Every eval key served, hot and miss, against experiments.Run.
	served := map[string][]byte{}
	byKey := map[string]evalKey{}
	note := func(k evalKey, body []byte) {
		served[keyString(k)] = body
		byKey[keyString(k)] = k
	}
	for i, k := range u.plan.hot {
		note(k, u.hotBody[i])
	}
	for _, pr := range all {
		for i, body := range pr.missBody {
			note(u.plan.misses[i], body)
		}
	}
	names := make([]string, 0, len(byKey))
	for s := range byKey {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		want, err := referenceEval(ctx, byKey[s])
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if !bytes.Equal(served[s], want) {
			res.fail("eval %s: served body differs from experiments.Run", s)
		}
	}
	for _, pr := range all {
		for k, bodies := range pr.boundBody {
			res.Attempted++
			for _, b := range bodies[1:] {
				if !bytes.Equal(b, bodies[0]) {
					res.fail("bound %s: bodies differ between queries", u.plan.bounds[k])
					break
				}
			}
		}
	}
	counts := layerCounts{extra: map[string]float64{}}
	for _, s := range mixed.sweeps {
		if s.err != nil {
			continue
		}
		want, cells, err := localGridCSV(ctx, tr, vroot, s.req, 0)
		if err != nil {
			return nil, err
		}
		counts.sweepCells += cells
		res.Attempted++
		if !bytes.Equal(s.csv, want) {
			res.fail("sweep %s: CSV differs from a local sweep.Grid run", s.id)
		}
	}
	tr.end(vroot)
	if tr == nil {
		return res, nil
	}

	// Traced only: the layers behind the served requests, one call each.
	var bounds []string
	for k, q := range u.plan.bounds {
		for _, pr := range all {
			if _, ok := pr.boundBody[k]; ok {
				bounds = append(bounds, q)
				break
			}
		}
	}
	for _, q := range bounds {
		if err := analyzeBound(tr, root, q); err != nil {
			return nil, err
		}
		counts.staticQueries++
	}
	// Decompose the mixed phase's misses, the population job_s reports.
	d := &decomposer{tr: tr, parent: root}
	idx := make([]int, 0, len(mixed.missBody))
	for i := range mixed.missBody {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		k := u.plan.misses[i]
		if err := decomposeEval(ctx, d, k, res); err != nil {
			return nil, err
		}
	}
	tr.end(root)
	d.counts.staticQueries, d.counts.sweepCells = counts.staticQueries, counts.sweepCells
	d.counts.peer = s2.sub(s0)
	d.counts.extra = map[string]float64{
		"bench.gen_late_p99_ms": percentile(latenessMs(mixed.outs), 99),
		"server.shed":           c1["rejected"] - c0["rejected"],
		"server.queue_wait_ms":  median(waitMs),
	}
	if h, m := c1["cache_hits"]-c0["cache_hits"], c1["cache_misses"]-c0["cache_misses"]; h+m > 0 {
		d.counts.extra["server.hit_ratio"] = h / (h + m)
	}
	res.Layers = layerMetrics(tr, d.counts, ms0)
	return res, nil
}

// referenceEval renders an eval key through experiments.Run on a fresh
// suite — what cmd/repro prints for the same parameters.
func referenceEval(ctx context.Context, k evalKey) ([]byte, error) {
	benches, err := spec.ParseList(strings.Join(k.Benches, ","))
	if err != nil {
		return nil, err
	}
	p := experiments.Params{
		Suite: core.NewSuite(benches, k.Commits), Benches: benches, Commits: k.Commits,
		PET: 512, RawFIT: 0.001, SimPoints: 4, Strikes: 50_000, Seed: 1,
	}
	var buf bytes.Buffer
	err = experiments.Run(ctx, &buf, k.Experiment, p, false)
	return buf.Bytes(), err
}

// decomposeEval repeats an eval miss's simulations one layer call per
// span: each benchmark's batch of the policies the experiment prewarms.
func decomposeEval(ctx context.Context, d *decomposer, k evalKey, res *unitResult) error {
	pols := []core.Policy{core.PolicyBaseline}
	if k.Experiment == "table1" {
		pols = []core.Policy{core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0}
	}
	for _, name := range k.Benches {
		b, ok := spec.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		bad, err := d.workloadBatches(ctx, b.Params, k.Commits, [][]core.BatchSpec{policySpecs(false, pols...)})
		if err != nil {
			return err
		}
		res.Attempted++
		for _, e := range bad {
			res.fail("%s", e)
		}
	}
	return nil
}

// analyzeBound calls static.Analyze for one bound query, as the server
// does on a cache miss.
func analyzeBound(tr *tracer, parent int, query string) error {
	q, err := url.ParseQuery(query)
	if err != nil {
		return err
	}
	b, ok := spec.ByName(q.Get("bench"))
	if !ok {
		return fmt.Errorf("unknown benchmark %q", q.Get("bench"))
	}
	pol, err := core.ParsePolicy(q.Get("policy"))
	if err != nil {
		return err
	}
	iq, _ := strconv.Atoi(q.Get("iqsize"))
	commits, _ := strconv.ParseUint(q.Get("commits"), 10, 64)
	cfg := pipeline.DefaultConfig()
	pol.Apply(&cfg)
	cfg.IQSize = iq
	tr.do("static.analyze", parent, func() { _, err = static.Analyze(b.Params, commits, cfg) })
	return err
}

// localGridCSV runs a sweep request's grid in this process through
// sweep.Grid and renders its CSV, timing it as a sweep.grid span.
func localGridCSV(ctx context.Context, tr *tracer, parent int, sr server.SweepRequest, workers int) ([]byte, int, error) {
	benches, err := spec.ParseList(strings.Join(sr.Benches, ","))
	if err != nil {
		return nil, 0, err
	}
	pols := make([]core.Policy, len(sr.Policies))
	for i, p := range sr.Policies {
		if pols[i], err = core.ParsePolicy(p); err != nil {
			return nil, 0, err
		}
	}
	g := &sweep.Grid{Benches: benches, Policies: pols, IQSizes: sr.IQSizes, OutOfOrder: []bool{false},
		Commits: sr.Commits, Workers: workers}
	var rows []sweep.Row
	tr.do("sweep.grid", parent, func() { rows, err = g.RunContext(ctx, nil, nil) })
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	err = sweep.WriteCSV(&buf, rows)
	return buf.Bytes(), g.Size(), err
}
