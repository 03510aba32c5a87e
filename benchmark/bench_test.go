package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"aida/internal/kb"
	"aida/internal/server"
	"aida/internal/wiki"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 95); v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 50); v != 100 || beyond != 100 {
		t.Errorf("p50 of 1..200 = %v with %d beyond, want 100 with 100", v, beyond)
	}
	// 200 samples are the fewest whose p95 has minBeyond beyond it; one
	// fewer is refused.
	if _, windows, err := windowedPercentile(xs, 95); err != nil || windows != 1 {
		t.Errorf("p95 of 200 samples must be accepted as one window: %d windows, %v", windows, err)
	}
	if _, _, err := windowedPercentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowedPercentileIgnoresOneBurst(t *testing.T) {
	// Five windows of 200 samples at 1 ms; one window holds a burst.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 400; i < 460; i++ {
		xs[i] = 50
	}
	v, windows, err := windowedPercentile(xs, 95)
	if err != nil || windows != 5 || v != 1 {
		t.Errorf("windowed p95 = %v over %d windows (%v), want 1 over 5", v, windows, err)
	}
	if plain, _ := percentile(sorted(xs), 95); plain != 50 {
		t.Errorf("plain p95 = %v, want the burst's 50", plain)
	}
	if _, _, err := windowedPercentile(xs[:windowSamples-1], 95); err == nil {
		t.Error("fewer samples than one window must be refused")
	}
}

func TestWindowedRateIsTheSteadyRate(t *testing.T) {
	// 16 windows of 0.25 s: the first two complete 10 units, the rest 100;
	// one completion lands after the phase ended.
	var done []float64
	var units []int
	for w := 0; w < 16; w++ {
		n := 100
		if w < 2 {
			n = 10
		}
		done = append(done, float64(w)*0.25+0.1)
		units = append(units, n)
	}
	done, units = append(done, 4.01), append(units, 1000)
	if got := windowedRate(done, units, 4); got != 400 {
		t.Errorf("windowed rate = %v, want 400", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	// One connection, a request due every 10 ms, and a handler that stalls
	// 60 ms on the first request: the requests that queued behind it were
	// due long before they could be sent, and their latency must say so.
	const stall = 60 * time.Millisecond
	p := openLoop("hi", 100, 100*time.Millisecond, 1, func(i int) reply {
		if i == 0 {
			time.Sleep(stall)
		}
		return reply{docs: 1, status: 200}
	})
	if p.Attempted != 10 || p.Failed != 0 || p.Docs != 10 {
		t.Fatalf("attempted=%d failed=%d docs=%d, want 10/0/10", p.Attempted, p.Failed, p.Docs)
	}
	// Request 1 was due at 10 ms and could go out at 60 ms.
	if got := p.LatencyMS[1]; got < 45 {
		t.Errorf("request 1 latency %.1f ms: the stall it queued behind is missing", got)
	}
	if got := p.LatenessMS[1]; got < 45 {
		t.Errorf("request 1 lateness %.1f ms, want ≈ 50", got)
	}
	if p.BacklogMax < 3 {
		t.Errorf("backlog max %d, want the requests that came due during the stall", p.BacklogMax)
	}
	// The timetable does not stretch: ten requests were scheduled whatever
	// the replies did.
	if last := p.LatencyMS[9]; last > 45 {
		t.Errorf("request 9 latency %.1f ms: the queue should have drained by then", last)
	}
}

func TestLoadPhasesCountFailuresAgainstAttempts(t *testing.T) {
	fail := func(i int) reply {
		if i%2 == 1 {
			return reply{status: 503, err: os.ErrDeadlineExceeded}
		}
		return reply{docs: 2, status: 200, bytes: 10}
	}
	p := closedLoop("sat", time.Second, 2, 10, fail)
	if p.Attempted != 10 || p.Failed != 5 || p.Succeeded != 5 || p.Docs != 10 || p.HTTP5xx != 5 {
		t.Errorf("closed loop: %+v", p)
	}
	if len(p.LatencyMS) != 5 {
		t.Errorf("a failed request must have no latency figure: %d latencies for 5 successes", len(p.LatencyMS))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "doc", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "b", StartNS: 20, EndNS: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", StartNS: 90, EndNS: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "probe", StartNS: 0, EndNS: 100, Parent: 0, Probe: true},
		{Name: "a.child", StartNS: 12, EndNS: 20, Parent: 1},
	}
	want := []int64{50, 12, 30, 30, 100, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestScalingRefusedOnTooFewCPUs(t *testing.T) {
	if _, err := scalingWorkers(1, 4); err == nil {
		t.Error("4 workers on 1 CPU must be refused")
	}
	if _, err := scalingWorkers(4, 1); err == nil {
		t.Error("a scaling figure needs at least 2 workers")
	}
	if w, err := scalingWorkers(2, 2); err != nil || w != 2 {
		t.Errorf("2 workers on 2 CPUs = %d, %v", w, err)
	}
}

// smallWorkload shrinks a workload so its inputs generate in milliseconds.
func smallWorkload(t *testing.T, name string) *workload {
	t.Helper()
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	small := *wl
	small.entities = 400
	if small.docs > 0 {
		small.docs = 40
	}
	return &small
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, name := range []string{"short-tenant", "batch-cold", "live-delta"} {
		t.Run(name, func(t *testing.T) {
			wl := smallWorkload(t, name)
			a, err := generate(wl, 7, 0.2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(wl, 7, 0.2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			other, err := generate(wl, 8, 0.2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(a.reqs) == 0 || len(a.reqs) != len(b.reqs) {
				t.Fatalf("%d and %d requests", len(a.reqs), len(b.reqs))
			}
			same := true
			for i := range a.reqs {
				if !bytes.Equal(a.reqs[i].body, b.reqs[i].body) || a.reqs[i].key != b.reqs[i].key {
					t.Fatalf("request %d differs between two generations from one seed", i)
				}
				same = same && i < len(other.reqs) && bytes.Equal(a.reqs[i].body, other.reqs[i].body)
			}
			if same {
				t.Error("another seed produced the same request bodies")
			}
			for _, file := range []string{"tenants.json", "domains.json"} {
				fa, erra := os.ReadFile(filepath.Join(a.dir, file))
				fb, errb := os.ReadFile(filepath.Join(b.dir, file))
				if wl.tenanted && (erra != nil || errb != nil || !bytes.Equal(fa, fb)) {
					t.Errorf("%s differs between two generations from one seed (%v, %v)", file, erra, errb)
				}
			}
			for g := 0; g < wl.journal+3; g++ {
				da, _ := json.Marshal(a.delta(g))
				db, _ := json.Marshal(b.delta(g))
				if !bytes.Equal(da, db) {
					t.Errorf("delta generation %d differs between two generations from one seed", g)
				}
			}
			// The KB file's gob encoding orders maps freely; its content does not.
			if fa, fb := loadFingerprint(t, a.kbPath), loadFingerprint(t, b.kbPath); fa != fb {
				t.Errorf("KB files differ in content: %x vs %x", fa, fb)
			}
			if fa, fo := loadFingerprint(t, a.kbPath), loadFingerprint(t, other.kbPath); fa == fo {
				t.Error("another seed produced the same KB")
			}
		})
	}
}

func loadFingerprint(t *testing.T, path string) uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	k, err := kb.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return k.Fingerprint()
}

func TestGeneratedDeltasAndDomainsApply(t *testing.T) {
	// The reference System is the server's shape in process: building it
	// applies the journaled deltas and registers the domain layers, and a
	// chain of further deltas must keep applying on top.
	in, err := generate(smallWorkload(t, "short-tenant"), 3, 0.2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := in.referenceSystem()
	if err != nil {
		t.Fatal(err)
	}
	for g := in.wl.journal; g < in.wl.journal+5; g++ {
		if _, err := sys.ApplyDelta(in.delta(g)); err != nil {
			t.Fatalf("delta generation %d: %v", g, err)
		}
	}
	doc, err := in.referenceDoc(sys, 1) // request 1 names a domain
	if err != nil || len(doc.Annotations) == 0 || doc.Candidates == nil {
		t.Fatalf("reference annotation of a tenanted request: %v, %+v", err, doc)
	}
	mix := map[string]int{}
	for _, rq := range in.reqs {
		var b annotateBody
		if err := json.Unmarshal(rq.body, &b); err != nil {
			t.Fatal(err)
		}
		if b.Context != nil {
			mix["context"]++
		}
		if b.Domain != "" {
			mix["domain"]++
		}
		if b.Confidence != nil {
			mix["confidence"]++
		}
		if rq.key == "" || !b.Candidates {
			t.Fatal("every tenanted request carries a key and asks for candidates")
		}
	}
	if n := len(in.reqs); mix["domain"] != n/4 || mix["confidence"] != n/10 || mix["context"] < n/3 {
		t.Errorf("request mix over %d requests: %v", n, mix)
	}
}

func TestGoldSpansAreLocated(t *testing.T) {
	in := &inputs{world: wiki.Generate(wiki.Config{Seed: 5, Entities: 400})}
	for _, d := range in.world.GenerateCorpus(newsSpec(20, 9)) {
		doc := in.located(d)
		inKB := 0
		for _, m := range d.Mentions {
			if m.Entity != kb.NoEntity {
				inKB++
			}
		}
		if len(doc.gold) != inKB {
			t.Fatalf("located %d of %d in-KB gold mentions", len(doc.gold), inKB)
		}
		prev := 0
		for _, g := range doc.gold {
			if g.start < prev || g.end > len(doc.text) || g.end <= g.start {
				t.Fatalf("gold span [%d,%d) out of order in a %d-byte text", g.start, g.end, len(doc.text))
			}
			prev = g.end
		}
	}
}

func TestOutputCheckHelpers(t *testing.T) {
	text := "Page played in Kashmir."
	anns := []server.Annotation{{Text: "Page", Start: 0, End: 4, Entity: 3}, {Text: "Kashmir", Start: 15, End: 22, Entity: kb.NoEntity}}
	if err := wellFormed(text, anns, 10); err != nil {
		t.Errorf("well-formed annotations refused: %v", err)
	}
	if err := wellFormed(text, anns, 3); err == nil {
		t.Error("entity 3 of a 3-entity KB must be refused")
	}
	if err := wellFormed(text, []server.Annotation{{Text: "Plant", Start: 0, End: 5}}, 10); err == nil {
		t.Error("a span that does not carry its text must be refused")
	}
	if err := wellFormed(text, []server.Annotation{anns[1], anns[0]}, 10); err == nil {
		t.Error("spans out of text order must be refused")
	}
	d := &document{text: text, gold: []goldSpan{{0, 4, 3}, {15, 22, 7}}}
	if c, n := goldHits(d, anns); c != 1 || n != 2 {
		t.Errorf("gold hits = %d/%d, want 1/2", c, n)
	}
	if _, err := parseBatchLines([]byte("{\"index\":0,\"annotations\":[]}\n{\"index\":2,\"annotations\":[]}\n"), 2); err == nil {
		t.Error("a batch line out of order must be refused")
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("1234 (aida) server) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0")
	if got, err := parseProcStatCPU(stat); err != nil || got != 2 {
		t.Errorf("cpu seconds = %v, %v; want 2 (150+50 ticks)", got, err)
	}
	if got, err := parseVmHWM([]byte("Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n")); err != nil || got != 200 {
		t.Errorf("VmHWM = %v, %v; want 200 MiB", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status file without VmHWM must be an error")
	}
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json to the tables the
// program prints from and to the limits of the benchmark contract.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) || len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d end-to-end/per-layer/workloads, the program %d/%d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(bf.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Error("metric counts or run_seconds outside the contract's limits")
	}
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v / better %q outside the contract", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
		if seen[m.Name] || !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("bad or repeated metric name/unit: %s (%s)", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if seen[m.Name] || !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("bad or repeated metric name/unit: %s (%s)", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || seen[w.Name] || !name.MatchString(w.Name) {
			t.Errorf("workloads[%d] = %s, program has %s", i, w.Name, workloads[i].name)
		}
		seen[w.Name] = true
	}
}

func TestNewResultRefusesUndeclaredAndMissingMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "count"}}
	if _, err := newResult(defs, map[string]float64{"a": 1}, 1, 0, true); err == nil {
		t.Error("a declared metric that was not measured must be refused")
	}
	if _, err := newResult(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0, true); err == nil {
		t.Error("a measured metric that was not declared must be refused")
	}
	res, err := newResult(defs, map[string]float64{"a": 1.5, "b": 2}, 7, 1, false)
	if err != nil || res.Metrics["a"] != (metricValue{1.5, "ms"}) || res.Attempted != 7 || res.Failed != 1 || res.Correct {
		t.Errorf("result = %+v, %v", res, err)
	}
}
