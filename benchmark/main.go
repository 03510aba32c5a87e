// Command benchmark is the repository's benchmark: it generates a workload
// from a seed, builds and boots a real cmd/aidaserver, drives it over HTTP,
// checks every response and prints each metric by name with its unit. A
// second, traced mode replays the same documents in process through the
// exported functions of each package and reports per-layer numbers.
//
//	go run ./benchmark                                    # every workload, untraced then traced
//	go run ./benchmark -workload news-warm                # one workload, end-to-end metrics
//	go run ./benchmark -workload news-warm -trace 1       # its per-layer metrics
//	go run ./benchmark -workload news-warm -trace 1 -spans spans.json
//	go run ./benchmark -repeat 5                          # run-to-run spread against the bounds
//
// The last line of standard output is one JSON object; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload: news-warm, short-tenant, batch-cold or live-delta (default: all, untraced then traced)")
		seed         = flag.Int64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from the untraced HTTP run; 1: per-layer metrics from the traced in-process replay")
		spansPath    = flag.String("spans", "", "with -trace 1, write the replay's spans to this file as JSON")
		repeat       = flag.Int("repeat", 0, "run the untraced set this many times and report min/median/max and spread per metric; exit non-zero if a spread exceeds its bound")
	)
	flag.Parse()
	// An interrupt cancels ctx, which kills the server process the run
	// started; the run then fails on its next request and exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, *workloadName, *seed, *seconds, *trace, *spansPath, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out io.Writer, workloadName string, seed int64, seconds float64, trace int, spansPath string, repeat int) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", trace)
	}
	selected := workloads
	if workloadName != "" {
		wl, err := workloadByName(workloadName)
		if err != nil {
			return err
		}
		selected = []*workload{wl}
	}
	// The load generator may use every CPU and no more: GOMAXPROCS is left
	// at (or put back to) the CPU count, which also caps its connections.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Fprintf(out, "environment: nproc=%d GOMAXPROCS=%d %s %s/%s\n", nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	if repeat > 0 {
		return runRepeat(ctx, out, selected, seed, seconds, repeat, nproc, bf)
	}
	if workloadName != "" {
		res, err := runOne(ctx, out, selected[0], seed, seconds, trace == 1, spansPath, nproc)
		if err != nil {
			return err
		}
		return finish(out, res)
	}
	// Everything: each workload untraced, then traced. The last line maps
	// "<workload>" and "<workload>.layers" to their results.
	all := map[string]*result{}
	correct := true
	for _, wl := range selected {
		for _, traced := range []bool{false, true} {
			res, err := runOne(ctx, out, wl, seed, seconds, traced, "", nproc)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			key := wl.name
			if traced {
				key += ".layers"
			}
			all[key] = res
			correct = correct && res.Correct
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !correct {
		return fmt.Errorf("a workload failed its output check")
	}
	return nil
}

// finish prints a single run's result line; an incorrect run still prints
// it, then fails the command.
func finish(out io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("output check failed: %d of %d requests", res.Failed, res.Attempted)
	}
	return nil
}

// runOne runs one workload once, untraced (end-to-end metrics) or traced
// (per-layer metrics), and prints its metric table.
func runOne(ctx context.Context, out io.Writer, wl *workload, seed int64, seconds float64, traced bool, spansPath string, nproc int) (*result, error) {
	if traced {
		fmt.Fprintf(out, "== %s: traced run, per-layer metrics (seed %d) ==\n", wl.name, seed)
		return runLayers(ctx, out, wl, seed, seconds, spansPath, nproc)
	}
	fmt.Fprintf(out, "== %s: end-to-end metrics (seed %d, %g s measured) ==\n", wl.name, seed, seconds)
	in, bin, cleanup, err := prepare(ctx, wl, seed, seconds, out)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	hr, err := runHTTP(ctx, in, bin, seconds, setupBoots, nproc, out)
	if err != nil {
		return nil, err
	}
	values, err := hr.endToEndMetrics(out)
	if err != nil {
		return nil, err
	}
	attempted, failed, _ := hr.totals()
	res, err := newResult(endToEnd, values, attempted, failed, failed == 0)
	if err != nil {
		return nil, err
	}
	res.printTable(out, endToEnd)
	return res, nil
}

// runRepeat is the A/A tool: the same untraced set n times with the same
// seed on the same box, spread per metric against the metric's own bound.
func runRepeat(ctx context.Context, out io.Writer, selected []*workload, seed int64, seconds float64, n, nproc int, bf *benchmarkFile) error {
	runs := map[string][]map[string]float64{}
	for i := 0; i < n; i++ {
		for _, wl := range selected {
			fmt.Fprintf(out, "-- repeat %d/%d --\n", i+1, n)
			res, err := runOne(ctx, out, wl, seed, seconds, false, "", nproc)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: output check failed: %d of %d requests", wl.name, res.Failed, res.Attempted)
			}
			values := map[string]float64{}
			for name, m := range res.Metrics {
				values[name] = m.Value
			}
			runs[wl.name] = append(runs[wl.name], values)
		}
	}
	ok := true
	for _, wl := range selected {
		ok = repeatReport(out, wl.name, runs[wl.name], bf) && ok
	}
	if !ok {
		return fmt.Errorf("run-to-run spread exceeds a metric's bound")
	}
	return nil
}
