package main

import (
	"fmt"

	"aida/internal/wiki"
)

// maxCandidates is the server's -max-candidates on every workload; the
// in-process reference uses the same cap.
const maxCandidates = 10

// setupBoots is how many times a run boots the server to time set-up; the
// median is reported and the last boot serves the measurement.
const setupBoots = 5

// warmPrefix is how many documents the timed part of a warm workload's
// set-up sends. The remaining documents are warmed untimed, on the one
// instance that is measured, so that three boots stay affordable.
const warmPrefix = 300

// coldDocsPerSecond sizes batch-cold's pool of never-repeated documents at
// ≈ 75 % of what the reference box completes in the measured time, so that
// on it the pool, not the clock, ends the phase. The pair cache only grows
// on this workload: with the work fixed, peak memory and CPU per document
// compare between commits instead of rising with every document a faster
// build gets through. A box too slow to drain the pool stops at the clock.
const coldDocsPerSecond = 160

// phaseSpec is one load phase of a workload, identical on every commit.
type phaseSpec struct {
	name  string
	loop  string  // "open" or "closed"
	share float64 // share of -seconds this phase measures
	rate  float64 // open loop: requests per second, frozen (see README)
}

// workload is one traffic mix with the deployment shape it is served by.
type workload struct {
	name     string
	entities int
	docs     int // distinct documents; 0 sizes a never-repeated pool from -seconds
	corpus   func(n int, seed int64) wiki.CorpusSpec
	batch    int  // documents per request; 0 posts single documents to /v1/annotate
	shards   int  // -shards
	tenanted bool // -tenants and -domains, API keys, context, domain, candidates, confidence
	journal  int  // deltas in the journal the server replays at boot; 0 runs without -delta-journal
	warm     bool // warm the engine before measuring
	// liveDeltas is how many deltas a writer posts beside the readers,
	// evenly spaced over the measured time; 0 keeps the KB fixed, and then
	// every response must equal the in-process reference.
	liveDeltas int
	phases     []phaseSpec
}

// newsSpec is the news-wire document shape: wiki.CoNLLSpec with 10–20 gold
// mentions per document instead of 12–32 (≈ 20 recognized mentions, ≈ 1 KB).
// At 12–32, about one document in 200 lands in the solver's exhaustive
// enumeration band (up to 65 536 assignments, 30–300 ms against a 2 ms
// median); a run holds too few of them for their share to repeat, and
// between seeds throughput moved by 13 % and the loaded p95 by a factor of
// 40. Bounding that worst case is ROADMAP item 4; a workload for it belongs
// with that change.
func newsSpec(n int, seed int64) wiki.CorpusSpec {
	spec := wiki.CoNLLSpec(n, seed)
	spec.MinMentions, spec.MaxMentions = 10, 20
	return spec
}

func longTailNewsSpec(n int, seed int64) wiki.CorpusSpec {
	spec := newsSpec(n, seed)
	spec.LongTailBias = 1.5
	return spec
}

// The open-loop rates are ≈15 % (lo) and ≈50 % (hi) of the closed-loop
// throughput measured once on the 2-core reference box at the commit that
// added the benchmark, rounded to 10 req/s. They are constants: a faster
// build is measured at the same offered load, not at a higher one.
var workloads = []*workload{
	{
		name: "news-warm", entities: 5000, docs: 3000, corpus: newsSpec,
		shards: 1, warm: true,
		phases: []phaseSpec{
			{name: "lo", loop: "open", share: 2.0 / 7, rate: 120},
			{name: "hi", loop: "open", share: 3.0 / 7, rate: 240},
			{name: "sat", loop: "closed", share: 2.0 / 7},
		},
	},
	{
		name: "short-tenant", entities: 5000, docs: 1000, corpus: wiki.HardSpec,
		shards: 4, tenanted: true, journal: 1, warm: true,
		phases: []phaseSpec{
			{name: "lo", loop: "open", share: 2.0 / 7, rate: 200},
			{name: "hi", loop: "open", share: 3.0 / 7, rate: 400},
			{name: "sat", loop: "closed", share: 2.0 / 7},
		},
	},
	{
		name: "batch-cold", entities: 20000, corpus: longTailNewsSpec,
		batch: 8, shards: 1,
		phases: []phaseSpec{
			{name: "sat", loop: "closed", share: 1},
		},
	},
	{
		name: "live-delta", entities: 5000, docs: 3000, corpus: newsSpec,
		shards: 1, journal: 3, warm: true, liveDeltas: 14,
		phases: []phaseSpec{
			{name: "hi", loop: "open", share: 0.75, rate: 240},
			{name: "sat", loop: "closed", share: 0.25},
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// numDocs resolves the workload's distinct-document count for a run.
func (w *workload) numDocs(seconds float64) int {
	if w.docs > 0 {
		return w.docs
	}
	n := int(coldDocsPerSecond*seconds) + w.batch
	return n - n%w.batch
}

// conns is how many connections the load generator drives: nproc for
// single-document traffic; one for batches, which fan out inside the
// server instead.
func (w *workload) conns(nproc int) int {
	if w.batch > 0 {
		return 1
	}
	return nproc
}
