// Command seraudit sweeps the repository's invariant checks across
// randomised seeds: every structural property the reproduction's numbers
// rest on — residency conservation, production lane ≡ reference
// interpreter, batch collector ≡ trace analysis, batched K-config ≡ K
// independent runs, -j 1 ≡ -j N, kill/resume
// identity, strike-partition merge exactness, trace save/load round-trip,
// content-address injectivity, cache byte-identity, job-lifecycle
// monotonicity, fleet ≡ local byte-identity under injected worker chaos —
// audited over fresh random configurations each seed.
//
//	seraudit              # all checks, seeds 1..20
//	seraudit -quick       # all checks, seeds 1..3 (the race/CI tier)
//	seraudit -check trace-differential -seeds 100
//	seraudit -j 8         # fan the (check, seed) units over 8 workers
//
// The seed sweep fans out across -j workers (GOMAXPROCS by default); the
// report order is deterministic regardless of the fan-out.
//
// Every failure prints the check name and seed; re-run that seed (or drop
// it into the matching test) to reproduce exactly. Exit status 1 when any
// check fails.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"softerror/internal/cli"
	"softerror/internal/invariant"
	"softerror/internal/par"
)

func main() { cli.Main("seraudit", run) }

func run(args []string) error {
	d := cli.NewDriver("seraudit", "seraudit [flags]")
	fs := d.FS
	seeds := fs.Uint64("seeds", 0, "audit seeds 1..N (default 20, or 3 under -quick)")
	quick := fs.Bool("quick", false, "small seed sweep for CI tiers")
	check := fs.String("check", "", "run only the named check (default: all)")
	commits := fs.Uint64("commits", 3000, "per-simulation commit budget")
	list := fs.Bool("list", false, "list the registered checks and exit")
	if err := d.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}

	checks := invariant.All()
	if *list {
		for _, c := range checks {
			fmt.Printf("%-24s %s\n", c.Name, c.Doc)
		}
		return nil
	}
	if *check != "" {
		c, err := invariant.Find(*check)
		if err != nil {
			return cli.Usagef("%v (see seraudit -list)", err)
		}
		checks = []invariant.Check{c}
	}
	n := *seeds
	if n == 0 {
		n = 20
		if *quick {
			n = 3
		}
	}
	opt := invariant.Options{Commits: *commits, Workers: d.Jobs()}

	// Fan the (check, seed) units across the worker pool. Each unit stores
	// its verdict into its own slot and never returns an error to par, so
	// the pool's only failure mode is a panicking check (isolated by the
	// Collect policy and folded into that unit's slot below). Reporting
	// then walks the units in registry × seed order, which keeps the
	// "FAIL <check> seed=N" stream deterministic regardless of -j.
	type unit struct {
		check int
		seed  uint64
	}
	units := make([]unit, 0, len(checks)*int(n))
	for ci := range checks {
		for seed := uint64(1); seed <= n; seed++ {
			units = append(units, unit{check: ci, seed: seed})
		}
	}
	results := make([]error, len(units))
	runErr := par.Run(context.Background(), len(units),
		par.Options{Workers: d.Jobs(), Policy: par.Collect},
		func(ctx context.Context, i int) error {
			u := units[i]
			results[i] = checks[u.check].Run(u.seed, opt)
			return nil
		})
	var tasks par.Errors
	if errors.As(runErr, &tasks) {
		for _, te := range tasks {
			results[te.Index] = te.Err
		}
	} else if runErr != nil {
		return runErr
	}

	failures := 0
	for i, u := range units {
		if err := results[i]; err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s seed=%d: %v\n", checks[u.check].Name, u.seed, err)
		}
		if u.seed == n {
			fmt.Printf("audited %-24s over %d seeds\n", checks[u.check].Name, n)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d invariant violation(s) across %d checks × %d seeds",
			failures, len(checks), n)
	}
	fmt.Printf("all %d checks hold over %d seeds\n", len(checks), n)
	return nil
}
