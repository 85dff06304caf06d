// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload with a seed for a given number of seconds, checks every
// output the program produced, and prints one JSON result line:
//
//	perfbench --workload repro-inorder --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, whose spans
// are written under .bench_build/trace/. README.md describes the
// workloads, the metrics and how they relate.
//
// Every measured unit runs in a fresh child process of this binary, so no
// measurement inherits warm process-global state (the core package's arena
// pool, the warmed cache snapshot) from an earlier one — a cmd/repro user
// pays those costs on every invocation, and a daemon pays them once per
// start.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// benchDir is this benchmark's directory, relative to the repository root.
const benchDir = "perfbench"

// unitConfig parameterises one measured unit.
type unitConfig struct {
	Root    string
	Seed    uint64
	Seconds float64
	// Small shrinks every input to a smoke-test size; the checks stay.
	Small bool
	// Traced is set in the process of a traced run.
	Traced bool
}

// unit is one process's share of a workload: set up, run the measured (or
// traced) phase, release everything.
type unit interface {
	setup() error
	// run measures with tr == nil, or records spans into tr.
	run(tr *tracer) (*unitResult, error)
	close()
}

// unitResult is what a child reports to the orchestrating parent.
type unitResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// JobS holds the workload's headline job durations, in seconds.
	JobS []float64 `json:"job_s"`
	// PeakRSSMB is the process's peak resident set at the end of the
	// measured phase, before the output checks allocate references (for
	// serve-mixed, the server process's, as README.md describes).
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Samples holds the workload's own latency populations, in ms; the
	// parent pools them over children and reports each with its count.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Detail holds the workload's own scalar figures; the parent reports
	// each as its median over children.
	Detail map[string]float64 `json:"detail,omitempty"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// fail records one failed check.
func (r *unitResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// workloadDef is a workload's unit constructor plus how the parent
// schedules its children.
type workloadDef struct {
	newUnit func(unitConfig) unit
	// perJob spawns measured children one after another until the run's
	// seconds are spent; otherwise one child runs the whole measured phase.
	perJob bool
	// minSetups is the fewest set-up timings set-up time is the median of;
	// set-up-only children top the measured ones up to it.
	minSetups int
}

var workloads = map[string]workloadDef{
	"repro-inorder": {newUnit: func(c unitConfig) unit { return newReproUnit(c, false) }, perJob: true, minSetups: 15},
	"repro-ooo":     {newUnit: func(c unitConfig) unit { return newReproUnit(c, true) }, perJob: true, minSetups: 15},
	"serve-mixed":   {newUnit: newServeUnit, minSetups: 7},
	"fleet-sweep":   {newUnit: newFleetUnit, minSetups: 15},
}

// childTimeout bounds any one child process.
const childTimeout = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: repro-inorder, repro-ooo, serve-mixed or fleet-sweep")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	root := fs.String("root", ".", "repository root")
	child := fs.String("child", "", "internal: run one unit in this process (unit or traced), or a unit's server")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := unitConfig{Root: absRoot, Seed: *seed, Seconds: *seconds, Traced: *child == "traced"}
	if *child == "server" {
		if err := runServerChild(*trace == 1, os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench server child: %v\n", err)
			return 1
		}
		return 0
	}
	if *child != "" {
		if err := runChild(def.newUnit(cfg), *child == "traced", cfg, *name, os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench child %s: %v\n", *name, err)
			return 1
		}
		return 0
	}
	return runParent(*name, def, cfg, *trace == 1, stdout, stderr)
}

// runChild sets the unit up, announces readiness, and then either runs it
// ("go") or just releases it ("stop"), as the parent commands.
func runChild(u unit, traced bool, cfg unitConfig, name string, in io.Reader, out io.Writer) error {
	if err := u.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer u.close()
	fmt.Fprintln(out, "ready")
	cmd, err := bufio.NewReader(in).ReadString('\n')
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	if strings.TrimSpace(cmd) != "go" {
		return nil
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := u.run(tr)
	if err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(cfg.Root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, cfg.Seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// childRun is one child process's outcome as the parent saw it.
type childRun struct {
	setup time.Duration
	res   *unitResult
}

// spawn starts a child unit, times it to readiness, sends cmd ("go" or
// "stop") and waits for it to exit.
func spawn(ctx context.Context, name string, cfg unitConfig, mode, cmd string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	c := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds), "-root", cfg.Root)
	c.Stderr = os.Stderr
	stdin, err := c.StdinPipe()
	if err != nil {
		return childRun{}, err
	}
	stdout, err := c.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	t0 := time.Now()
	if err := c.Start(); err != nil {
		return childRun{}, err
	}
	var cr childRun
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	cr.setup = time.Since(t0)
	if err == nil && strings.TrimSpace(line) != "ready" {
		err = fmt.Errorf("child said %q, want ready", line)
	}
	if err == nil {
		_, err = fmt.Fprintln(stdin, cmd)
	}
	stdin.Close()
	var last string
	if err == nil && cmd == "go" {
		for {
			l, rerr := r.ReadString('\n')
			if strings.TrimSpace(l) != "" {
				last = l
			}
			if rerr != nil {
				break
			}
		}
	}
	io.Copy(io.Discard, r)
	werr := c.Wait()
	if err == nil {
		err = werr
	}
	if err != nil {
		return cr, fmt.Errorf("child %s: %w", mode, err)
	}
	if cmd == "go" {
		cr.res = new(unitResult)
		if err := json.Unmarshal([]byte(last), cr.res); err != nil {
			return cr, fmt.Errorf("child result %q: %w", last, err)
		}
	}
	return cr, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runParent(name string, def workloadDef, cfg unitConfig, traced bool, stdout, stderr io.Writer) int {
	ctx := context.Background()
	start := time.Now()
	var setups, rss, jobs []float64
	var results []*unitResult
	add := func(cr childRun) {
		setups = append(setups, cr.setup.Seconds())
		if cr.res != nil {
			rss = append(rss, cr.res.PeakRSSMB)
			jobs = append(jobs, cr.res.JobS...)
			results = append(results, cr.res)
		}
	}
	spawnAdd := func(mode, cmd string) error {
		cr, err := spawn(ctx, name, cfg, mode, cmd)
		if err == nil {
			add(cr)
		}
		return err
	}
	var err error
	switch {
	case traced:
		err = spawnAdd("traced", "go")
	case def.perJob:
		for err == nil && (len(results) == 0 || time.Since(start).Seconds() < cfg.Seconds) {
			err = spawnAdd("unit", "go")
		}
	default:
		err = spawnAdd("unit", "go")
	}
	for err == nil && !traced && len(setups) < def.minSetups {
		err = spawnAdd("unit", "stop")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", name, err)
		return 1
	}

	out := finalLine{Metrics: map[string]metricValue{}}
	detail := map[string]any{}
	var errs []string
	samples := map[string][]float64{}
	scalars := map[string][]float64{}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		errs = append(errs, r.Errors...)
		for k, v := range r.Samples {
			samples[k] = append(samples[k], v...)
		}
		for k, v := range r.Detail {
			scalars[k] = append(scalars[k], v)
		}
	}
	for k, v := range samples {
		detail[k] = summarise(v)
	}
	for k, v := range scalars {
		detail[k] = median(v)
	}
	if out.Attempted == 0 {
		out.Attempted, out.Failed = 1, 1
	}
	out.Correct = out.Failed == 0
	detail["failed_frac"] = float64(out.Failed) / float64(out.Attempted)
	if traced {
		layers := results[0].Layers
		for _, m := range perLayer {
			out.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
		}
	} else {
		out.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s"}
		out.Metrics["peak_rss_mb"] = metricValue{Value: median(rss), Unit: "MB"}
		out.Metrics["job_s"] = metricValue{Value: median(jobs), Unit: "s"}
		detail["job_s"] = summarise(jobs)
		if len(jobs) <= 32 {
			detail["job_samples_s"] = jobs
		}
	}
	for _, e := range errs {
		fmt.Fprintf(stderr, "perfbench %s: check failed: %s\n", name, e)
	}

	info := map[string]any{
		"workload": name,
		"seed":     cfg.Seed,
		"traced":   traced,
		"meta":     hostMeta(cfg.Root),
		"samples":  map[string]int{"setup_s": len(setups), "peak_rss_mb": len(rss), "job_s": len(jobs), "children": len(results)},
		"detail":   detail,
	}
	b, _ := json.Marshal(info)
	fmt.Fprintf(stdout, "%s\n", b)
	b, _ = json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}
