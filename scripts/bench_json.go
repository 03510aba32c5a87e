// Command bench_json reduces `go test -bench` output into the committed
// benchmark-trajectory artifact: one JSON record per benchmark with its
// mean ns/op, B/op and allocs/op across repeats (-count=N runs of the same
// benchmark are averaged). CI runs the benchmark families with
// -benchmem -count=5 and GOMAXPROCS pinned, pipes the text through this
// reducer and uploads the result, so the perf trajectory of the engine is
// recorded per PR:
//
//	go test -run '^$' -bench 'BenchmarkAnnotate|BenchmarkWarmStart' \
//	    -benchmem -benchtime 1s -count=5 . > bench.txt
//	go test -run '^$' -bench BenchmarkServerAnnotate \
//	    -benchmem -benchtime 1s -count=5 ./internal/server >> bench.txt
//	go run ./scripts -prev BENCH_5.json < bench.txt > BENCH_6.json
//
// With -prev the fresh reduction is compared against a previously
// committed artifact and a per-benchmark markdown delta table is appended
// to the file named by -summary (for $GITHUB_STEP_SUMMARY; stderr when
// unset), flagging any benchmark whose ns/op or allocs/op regressed by
// more than 10%. The table is advisory — it never fails the run; timing
// on shared CI runners is too noisy for a hard gate, the committed JSON
// trajectory is the durable record.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// regressionThreshold is the relative ns/op or allocs/op increase past
// which the delta table flags a benchmark as a regression.
const regressionThreshold = 0.10

// sample is one parsed benchmark result line.
type sample struct {
	iters  int64
	nsOp   float64
	bOp    float64
	allocs float64
}

// record is the reduced, committed form of one benchmark.
type record struct {
	Name        string  `json:"name"`
	Samples     int     `json:"samples"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// artifact is the BENCH_<n>.json shape. NumCPU and GOMAXPROCS record the
// parallel capacity behind the numbers: scaling benchmarks are meaningless
// without knowing how many CPUs the workers actually had.
type artifact struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	prevPath := flag.String("prev", "", "previously committed BENCH_*.json to diff against")
	summaryPath := flag.String("summary", "", "append the -prev delta table to this file (e.g. $GITHUB_STEP_SUMMARY); stderr when unset")
	flag.Parse()

	out, err := reduce(os.Stdin)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
	if *prevPath == "" {
		return
	}
	prev, err := readArtifact(*prevPath)
	if err != nil {
		fatal(err)
	}
	table := deltaTable(*prevPath, prev, out)
	var w io.Writer = os.Stderr
	if *summaryPath != "" {
		f, err := os.OpenFile(*summaryPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := io.WriteString(w, table); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench_json:", err)
	os.Exit(1)
}

func readArtifact(path string) (artifact, error) {
	var art artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return art, err
	}
	if err := json.Unmarshal(data, &art); err != nil {
		return art, fmt.Errorf("%s: %w", path, err)
	}
	return art, nil
}

func reduce(r io.Reader) (artifact, error) {
	art := artifact{NumCPU: runtime.NumCPU()}
	samples := map[string][]sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			art.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			art.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			art.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		name, procs, s, ok := parseLine(line)
		if !ok {
			continue
		}
		if procs > 0 {
			art.GOMAXPROCS = procs
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return art, err
	}
	if len(samples) == 0 {
		return art, fmt.Errorf("no benchmark result lines on stdin")
	}
	for name, ss := range samples {
		rec := record{Name: name, Samples: len(ss)}
		for _, s := range ss {
			rec.Iterations += s.iters
			rec.NsPerOp += s.nsOp
			rec.BPerOp += s.bOp
			rec.AllocsPerOp += s.allocs
		}
		n := float64(len(ss))
		rec.NsPerOp /= n
		rec.BPerOp /= n
		rec.AllocsPerOp /= n
		art.Benchmarks = append(art.Benchmarks, rec)
	}
	sort.Slice(art.Benchmarks, func(i, j int) bool {
		return art.Benchmarks[i].Name < art.Benchmarks[j].Name
	})
	return art, nil
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   5   123456 ns/op   789 B/op   12 allocs/op   3.4 docs/s
//
// tolerating extra custom metrics. The -P GOMAXPROCS suffix is stripped so
// records stay comparable across machines, and returned separately for the
// artifact header.
func parseLine(line string) (string, int, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, sample{}, false
	}
	name := fields[0]
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
			procs = p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, sample{}, false
	}
	s := sample{iters: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, sample{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			s.nsOp = v
			seen = true
		case "B/op":
			s.bOp = v
		case "allocs/op":
			s.allocs = v
		}
	}
	return name, procs, s, seen
}

// deltaTable renders the fresh run against a previous artifact as a
// GitHub-flavored markdown table: one row per benchmark present in both,
// with the relative change in ns/op, B/op and allocs/op, and a ⚠️ marker
// on any row whose ns/op or allocs/op regressed past the threshold.
// Benchmarks that only exist on one side are listed below the table so
// renames and additions stay visible.
func deltaTable(prevName string, prev, cur artifact) string {
	prevBy := make(map[string]record, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		prevBy[r.Name] = r
	}
	curBy := make(map[string]record, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		curBy[r.Name] = r
	}

	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark delta vs %s\n\n", prevName)
	fmt.Fprintf(&b, "| benchmark | ns/op | Δ | B/op | Δ | allocs/op | Δ | |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---|\n")
	regressions := 0
	for _, r := range cur.Benchmarks {
		p, ok := prevBy[r.Name]
		if !ok {
			continue
		}
		nsD := relDelta(p.NsPerOp, r.NsPerOp)
		bD := relDelta(p.BPerOp, r.BPerOp)
		allocD := relDelta(p.AllocsPerOp, r.AllocsPerOp)
		mark := ""
		if nsD > regressionThreshold || allocD > regressionThreshold {
			mark = "⚠️"
			regressions++
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			r.Name,
			fmtVal(r.NsPerOp), fmtDelta(nsD),
			fmtVal(r.BPerOp), fmtDelta(bD),
			fmtVal(r.AllocsPerOp), fmtDelta(allocD),
			mark)
	}
	var added, removed []string
	for _, r := range cur.Benchmarks {
		if _, ok := prevBy[r.Name]; !ok {
			added = append(added, r.Name)
		}
	}
	for _, r := range prev.Benchmarks {
		if _, ok := curBy[r.Name]; !ok {
			removed = append(removed, r.Name)
		}
	}
	b.WriteString("\n")
	if regressions > 0 {
		fmt.Fprintf(&b, "⚠️ **%d benchmark(s) regressed by more than %.0f%%** in ns/op or allocs/op.\n\n",
			regressions, regressionThreshold*100)
	}
	if len(added) > 0 {
		fmt.Fprintf(&b, "New benchmarks (no baseline): %s\n\n", strings.Join(added, ", "))
	}
	if len(removed) > 0 {
		fmt.Fprintf(&b, "Benchmarks no longer present: %s\n\n", strings.Join(removed, ", "))
	}
	return b.String()
}

// relDelta is the relative change from old to new; 0 when there is no
// usable baseline (old == 0).
func relDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

func fmtVal(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func fmtDelta(d float64) string {
	return fmt.Sprintf("%+.1f%%", d*100)
}
