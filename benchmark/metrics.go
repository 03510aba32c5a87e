package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (a test holds the two together) and adds direction and bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, measured against
// the real server with tracing off. Every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"docs_per_s", "docs/s"},
	{"cpu_ms_per_doc", "ms"},
	{"rss_peak_mb", "MiB"},
	{"ok_share", "ratio"},
	{"accuracy_micro", "ratio"},
}

// perLayer are the metrics of single layers, from the traced in-process
// replay and from the traced run's own HTTP phases. Layers are this
// repository's packages.
var perLayer = []metricDef{
	{"tokenizer.tokenize_us", "us"},
	{"tokenizer.tokens_per_doc", "count"},
	{"ner.recognize_us", "us"},
	{"ner.mentions_per_doc", "count"},
	{"ner.lexicon_lookups_per_doc", "count"},
	{"kb.candidates_ns.kb", "ns"},
	{"kb.candidates_ns.sharded4", "ns"},
	{"kb.candidates_ns.overlay", "ns"},
	{"kb.candidates_ns.domain", "ns"},
	{"kb.candidates_ns.remote", "ns"},
	{"kb.entity_ns.kb", "ns"},
	{"kb.entity_ns.sharded4", "ns"},
	{"kb.entity_ns.overlay", "ns"},
	{"kb.entity_ns.domain", "ns"},
	{"kb.entity_ns.remote", "ns"},
	{"kb.candidates_bulk_us.remote", "us"},
	{"kb.remote_fetches_per_doc", "count"},
	{"kb.store_calls_per_doc", "count"},
	{"kb.load_ms", "ms"},
	{"kb.shard_build_ms", "ms"},
	{"kb.overlay_build_ms", "ms"},
	{"kb.fingerprint_ms", "ms"},
	{"disambig.problem_us", "us"},
	{"disambig.candidates_per_mention", "count"},
	{"disambig.sim_us", "us"},
	{"disambig.local_us", "us"},
	{"disambig.full_us", "us"},
	{"disambig.joint_us", "us"},
	{"disambig.comparisons_per_doc", "count"},
	{"disambig.graph_entities_per_doc", "count"},
	{"disambig.context_us", "us"},
	{"disambig.expand_us", "us"},
	{"graph.build_us", "us"},
	{"graph.solve_us", "us"},
	{"graph.entity_edges_per_doc", "count"},
	{"relatedness.pair_ns_warm.mw", "ns"},
	{"relatedness.pair_ns_warm_contended.mw", "ns"},
	{"relatedness.pair_ns_cold.mw", "ns"},
	{"relatedness.pair_us_cold.kore", "us"},
	{"relatedness.pair_hit_ratio", "ratio"},
	{"relatedness.pairs_cached", "count"},
	{"relatedness.snapshot_save_ms", "ms"},
	{"relatedness.snapshot_load_ms", "ms"},
	{"relatedness.clone_for_ms", "ms"},
	{"emerge.conf_us", "us"},
	{"pool.corpus_speedup", "ratio"},
	{"aida.annotate_doc_us", "us"},
	{"aida.stage_coverage", "ratio"},
	{"aida.apply_delta_ms", "ms"},
	{"aida.new_system_ms", "ms"},
	{"aida.spec_resolve_us", "us"},
	{"server.handler_us", "us"},
	{"server.overhead_us", "us"},
	{"server.wire_us", "us"},
	{"server.latency_p95_ms", "ms"},
	{"server.latency_p99_ms", "ms"},
	{"server.latency_max_ms", "ms"},
	{"server.http_429", "count"},
	{"server.http_5xx", "count"},
	{"server.response_bytes_per_doc", "count"},
	{"server.delta_apply_ms", "ms"},
	{"live.journal_append_ms", "ms"},
	{"live.journal_replay_ms", "ms"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// metricValue and result are the shapes of the run's last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs measured values with their declared units; a metric that
// was declared but not measured, or measured but not declared, is a bug in
// the benchmark and fails the run.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) (*result, error) {
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(values), len(defs))
	}
	return res, nil
}

// printTable lists the metrics by name with their units, in declaration
// order.
func (r *result) printTable(out io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

// tailLatency is the loaded tail of a run: the windowed p95 of the tail
// phase, or its plain p95 when the phase is too short for one window. It is
// a layer number, not an end-to-end metric: between identical runs on the
// reference box it moved by 18 %, between seeds by up to 29 %, more than the
// widest regression bound a metric may declare.
func (r *httpRun) tailLatency() (p95 float64, how string) {
	tail := r.tailPhase()
	if v, windows, err := windowedPercentile(tail.latencyInOrder(), 95); err == nil {
		return v, fmt.Sprintf("median over %d windows of ≥ %d samples of phase %s (≥ %d beyond each)", windows, windowSamples, tail.Name, minBeyond)
	}
	v, beyond := percentile(sorted(tail.LatencyMS), 95)
	return v, fmt.Sprintf("%d samples of phase %s, only %d beyond it", len(tail.LatencyMS), tail.Name, beyond)
}

// endToEndMetrics derives the end-to-end figures from an untraced run.
func (r *httpRun) endToEndMetrics(out io.Writer) (map[string]float64, error) {
	attempted, failed, docs := r.totals()
	if attempted == 0 || docs == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	first, sat := r.phases[0], r.phase("sat")
	p95, how := r.tailLatency()
	fmt.Fprintf(out, "latency: p50 over %d samples of phase %s; p95 %.4f ms, %s (a layer number: server.latency_p95_ms)\n",
		len(first.LatencyMS), first.Name, p95, how)
	fmt.Fprintf(out, "delta apply: median %.4f ms over %d (a layer number: server.delta_apply_ms)\n", median(r.deltaMS), len(r.deltaMS))
	fmt.Fprintf(out, "requests: attempted=%d failed=%d fail_share=%g; server cpu %.2fs over %d documents\n",
		attempted, failed, float64(failed)/float64(attempted), r.cpuSeconds, docs)
	return map[string]float64{
		"setup_s":        median(r.setupSeconds),
		"latency_p50_ms": median(first.LatencyMS),
		"docs_per_s":     windowedRate(sat.DoneS, sat.DocsOf, min(sat.Planned, sat.Elapsed).Seconds()),
		"cpu_ms_per_doc": r.cpuSeconds * 1000 / float64(docs),
		"rss_peak_mb":    r.rssMiB,
		"ok_share":       1 - float64(failed)/float64(attempted),
		"accuracy_micro": float64(r.goldCorrect) / float64(r.goldTotal),
	}, nil
}

// benchmarkFile is the part of BENCHMARK.json the program itself reads:
// the run length and each end-to-end metric's regression bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// repeatReport prints min / median / max and relative spread of each
// end-to-end metric over repeated runs of one workload and reports whether
// every spread stays within the metric's own bound.
func repeatReport(out io.Writer, wl string, runs []map[string]float64, bf *benchmarkFile) bool {
	ok := true
	fmt.Fprintf(out, "%s: %d runs\n  %-18s %12s %12s %12s %8s %7s\n", wl, len(runs), "metric", "min", "median", "max", "spread", "bound")
	for _, m := range bf.EndToEnd {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r[m.Name])
		}
		sort.Float64s(xs)
		spread := relSpread(xs)
		verdict := ""
		if spread > m.Bound {
			verdict = "  EXCEEDS BOUND"
			ok = false
		}
		fmt.Fprintf(out, "  %-18s %12.4f %12.4f %12.4f %7.2f%% %6.1f%%%s\n",
			m.Name, xs[0], median(xs), xs[len(xs)-1], 100*spread, 100*m.Bound, verdict)
	}
	return ok
}
