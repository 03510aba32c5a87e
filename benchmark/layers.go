package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"aida"
	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/graph"
	"aida/internal/kb"
	"aida/internal/kb/live"
	"aida/internal/ner"
	"aida/internal/relatedness"
	"aida/internal/server"
	"aida/internal/tokenizer"
)

// The traced run replays a workload's first replayDocs documents in
// process, one goroutine, around the exported functions of each package.
const (
	replayDocs = 200
	// confDocs bounds the CONF probe, which re-runs disambiguation ten
	// times per document.
	confDocs = 20
	// korePairs bounds the cold KORE probe per document: a cold KORE pair
	// builds two keyphrase profiles and is orders dearer than an MW pair.
	korePairs = 64
	// graphCandidates is how many candidates per mention (by prior) the
	// graph probe keeps. The probe's graph has no robustness tests pruning
	// it, and over all ten candidates the solver's post-processing alone
	// would outrun the rest of the replay.
	graphCandidates = 3
	// tracedShare is the share of -seconds the traced run's own HTTP phases
	// get; the replay takes the rest of the run.
	tracedShare = 1.0 / 2
)

// countingLexicon counts the recognizer's dictionary lookups.
type countingLexicon struct {
	ner.Lexicon
	lookups int
}

func (c *countingLexicon) HasName(normalized string) bool {
	c.lookups++
	return c.Lexicon.HasName(normalized)
}

// timedStore counts the calls a document's pipeline makes into its
// kb.Store and times the two that materialize candidates.
type timedStore struct {
	kb.Store
	calls      int
	candidates time.Duration
	entity     time.Duration
}

func (s *timedStore) Candidates(surface string) []kb.Candidate {
	t0 := time.Now()
	c := s.Store.Candidates(surface)
	s.candidates += time.Since(t0)
	s.calls++
	return c
}

func (s *timedStore) Entity(id kb.EntityID) *kb.Entity {
	t0 := time.Now()
	e := s.Store.Entity(id)
	s.entity += time.Since(t0)
	s.calls++
	return e
}

func (s *timedStore) WordIDF(word string) float64 {
	s.calls++
	return s.Store.WordIDF(word)
}

// timedBulkStore keeps a bulk-capable store bulk-capable under the
// wrapper, so the problem builder takes the path it takes in the server.
type timedBulkStore struct {
	*timedStore
	bulk kb.BulkCandidateStore
}

func (s timedBulkStore) CandidatesBulk(surfaces []string) [][]kb.Candidate {
	t0 := time.Now()
	c := s.bulk.CandidatesBulk(surfaces)
	s.candidates += time.Since(t0)
	s.calls++
	return c
}

func wrapStore(s kb.Store) (kb.Store, *timedStore) {
	ts := &timedStore{Store: s}
	if bulk, ok := s.(kb.BulkCandidateStore); ok {
		return timedBulkStore{timedStore: ts, bulk: bulk}, ts
	}
	return ts, ts
}

// generation is one (store, engine) pair, what aida.System serves a
// request from.
type generation struct {
	store  kb.Store
	engine *relatedness.Scorer
}

// stack is the workload's deployment shape rebuilt from exported
// constructors, layer by layer, the way cmd/aidaserver and aida.System
// compose it: KB → shards → one overlay per journaled delta → one domain
// layer per dictionary.
type stack struct {
	base    generation
	domains map[string]generation
}

// serving is the generation a request is served from: its domain's layer,
// or the base.
func (st *stack) serving(domain string) generation {
	if domain != "" {
		return st.domains[domain]
	}
	return st.base
}

func buildStack(in *inputs, k *kb.KB) (*stack, error) {
	var store kb.Store = k
	if in.wl.shards > 1 {
		store = kb.Shard(k, in.wl.shards)
	}
	gen := generation{store: store, engine: relatedness.NewScorer(store)}
	for _, d := range in.journaled {
		ov, err := kb.NewOverlay(gen.store, d)
		if err != nil {
			return nil, err
		}
		gen = generation{store: ov, engine: gen.engine.CloneFor(ov, ov.Touched(), ov.Added() > 0)}
	}
	st := &stack{base: gen, domains: map[string]generation{}}
	if in.wl.tenanted {
		for _, dict := range in.domains {
			layer, err := kb.NewDomainLayer(gen.store, dict)
			if err != nil {
				return nil, err
			}
			st.domains[dict.Name] = generation{store: layer, engine: gen.engine.CloneFor(layer, layer.Touched(), layer.Added() > 0)}
		}
	}
	return st, nil
}

// scalingWorkers decides how many workers the parallel-scaling probe may
// use. A scaling figure from more workers than CPUs measures the
// scheduler, not parallelism, so it is refused rather than printed.
func scalingWorkers(numCPU, gomaxprocs int) (int, error) {
	if gomaxprocs < 2 {
		return 0, fmt.Errorf("pool.corpus_speedup needs at least 2 workers, GOMAXPROCS is %d", gomaxprocs)
	}
	if numCPU < gomaxprocs {
		return 0, fmt.Errorf("pool.corpus_speedup refused: %d workers on %d CPUs would measure the scheduler, not parallelism", gomaxprocs, numCPU)
	}
	return gomaxprocs, nil
}

// recorder is the smallest http.ResponseWriter the handler probe needs; it
// also flushes, as the NDJSON stream asks of it.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) Flush()                      {}

// fleet is a loopback shard fleet: one kb.StoreHost per shard on its own
// listener, and the RemoteStore dialed against them.
type fleet struct {
	servers []*http.Server
	remote  *kb.RemoteStore
}

func startFleet(k kb.Store, shards int) (*fleet, error) {
	f := &fleet{}
	var m kb.ShardMap
	for i := 0; i < shards; i++ {
		host, err := kb.NewStoreHost(k, i, shards)
		if err != nil {
			f.stop()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		srv := &http.Server{Handler: host.Handler()}
		f.servers = append(f.servers, srv)
		go srv.Serve(l) // returns ErrServerClosed from stop; Serve closes l
		m.Shards = append(m.Shards, kb.ShardEndpoints{Primary: "http://" + l.Addr().String()})
	}
	remote, err := kb.DialFleet(context.Background(), m, kb.RemoteOptions{HedgeAfter: -1})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.remote = remote
	return f, nil
}

func (f *fleet) stop() {
	for _, s := range f.servers {
		s.Close()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// runLayers is the traced run: a short HTTP run against the real server
// for the layer numbers only it can give (wire time, tail latencies, the
// live engine's hit ratio), then the in-process replay.
func runLayers(ctx context.Context, out io.Writer, wl *workload, seed int64, seconds float64, spansPath string, nproc int) (*result, error) {
	workers, err := scalingWorkers(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	in, bin, cleanup, err := prepare(ctx, wl, seed, seconds*tracedShare, out)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	hr, err := runHTTP(ctx, in, bin, seconds*tracedShare, 1, nproc, out)
	if err != nil {
		return nil, err
	}

	v := map[string]float64{}
	tr := newTracer()
	if err := replay(ctx, in, v, tr, workers); err != nil {
		return nil, err
	}

	// Layer numbers that only the run against the real server has.
	first, tail := hr.phases[0], hr.tailPhase()
	lat := sorted(tail.LatencyMS)
	p95, how := hr.tailLatency()
	fmt.Fprintf(out, "server.latency_p95_ms: %s\n", how)
	v["server.latency_p95_ms"] = p95
	p99, beyond := percentile(lat, 99)
	fmt.Fprintf(out, "server.latency_p99_ms: %d samples of phase %s, %d beyond it\n", len(lat), tail.Name, beyond)
	v["server.latency_p99_ms"] = p99
	v["server.latency_max_ms"] = lat[len(lat)-1]
	v["server.wire_us"] = median(first.LatencyMS)*1000 - v["server.handler_us"]
	var lateness []float64
	var bytesServed int64
	for _, p := range hr.phases {
		lateness = append(lateness, p.LatenessMS...)
		v["loadgen.backlog_max"] = max(v["loadgen.backlog_max"], float64(p.BacklogMax))
		v["server.http_429"] += float64(p.HTTP429)
		v["server.http_5xx"] += float64(p.HTTP5xx)
		bytesServed += p.Bytes
	}
	// A closed-loop-only workload has no timetable to be late against.
	v["loadgen.lateness_p99_ms"], _ = percentile(sorted(lateness), 99)
	attempted, failed, docs := hr.totals()
	v["server.response_bytes_per_doc"] = float64(bytesServed) / float64(docs)
	v["server.delta_apply_ms"] = median(hr.deltaMS)
	v["relatedness.pair_hit_ratio"] = hr.pairHitRatio()
	v["relatedness.pairs_cached"] = float64(hr.stats.Engine.Pairs)

	correct := failed == 0
	if c := v["aida.stage_coverage"]; c < 0.9 || c > 1.1 {
		fmt.Fprintf(out, "aida.stage_coverage %.3f is outside [0.9, 1.1]: the stage spans do not add up to a document\n", c)
		correct = false
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), spansPath)
	}
	res, err := newResult(perLayer, v, attempted, failed, correct)
	if err != nil {
		return nil, err
	}
	res.printTable(out, perLayer)
	return res, nil
}

// docRequest is what the replay knows of one document's request: its text,
// resolved options and, rebuilt the way aida resolves a spec, its context
// model and domain.
type docRequest struct {
	text   string
	spec   aida.RequestSpec
	cm     *disambig.ContextModel
	domain string
}

func contextModel(c *aida.ContextSpec) *disambig.ContextModel {
	if c == nil || len(c.Keyphrases) == 0 {
		return nil
	}
	cm := &disambig.ContextModel{Weight: c.Weight}
	for _, kp := range c.Keyphrases {
		cm.Words = append(cm.Words, tokenizer.ContentWords(kp)...)
	}
	return cm
}

func (in *inputs) docRequest(i int) (docRequest, error) {
	dr := docRequest{text: in.docs[i].text}
	if in.wl.batch == 0 {
		var b annotateBody
		if err := json.Unmarshal(in.reqs[i].body, &b); err != nil {
			return dr, err
		}
		dr.spec = b.RequestSpec
		dr.cm = contextModel(b.Context)
		dr.domain = b.Domain
	}
	dr.spec.Parallelism = 1
	return dr, nil
}

// replay runs the in-process traced replay and fills v with every layer
// metric it owns.
func replay(ctx context.Context, in *inputs, v map[string]float64, tr *tracer, workers int) error {
	wl := in.wl
	n := min(replayDocs, len(in.docs))
	n -= n % max(wl.batch, 1)
	reqs := make([]docRequest, n)
	for i := range reqs {
		var err error
		if reqs[i], err = in.docRequest(i); err != nil {
			return err
		}
	}

	// kb: load, shard, fingerprint — each once, on the generated KB file.
	var k *kb.KB
	var err error
	v["kb.load_ms"] = ms(timed(func() {
		var f *os.File
		if f, err = os.Open(in.kbPath); err == nil {
			k, err = kb.Load(f)
			f.Close()
		}
	}))
	if err != nil {
		return fmt.Errorf("load %s: %w", in.kbPath, err)
	}
	var sharded *kb.ShardedKB
	v["kb.shard_build_ms"] = ms(timed(func() { sharded = kb.Shard(k, 4) }))
	v["kb.fingerprint_ms"] = ms(timed(func() { sink = k.Fingerprint() }))

	// Systems and the layer-by-layer stack. A warm workload shares one
	// warmed System between its probes; a cold one gives every probe a
	// fresh System, so each sees every document for the first time.
	var sys *aida.System
	v["aida.new_system_ms"] = ms(timed(func() { sys, err = in.referenceSystem() }))
	if err != nil {
		return err
	}
	systemFor := func() (*aida.System, error) {
		if wl.warm {
			return sys, nil
		}
		return in.referenceSystem()
	}
	st, err := buildStack(in, k)
	if err != nil {
		return err
	}
	full := disambig.NewAIDA()
	localCfg := full.Config
	localCfg.UseCoherence = false
	local := disambig.NewAIDAVariant("local", localCfg)

	// pipeline is annotateOne rebuilt from the layers' exported functions,
	// with a span around each. It returns the stage durations.
	type stages struct {
		tokenize, recognize, problem, full, root time.Duration
		tokens, mentions, lookups, calls         int
		rootSpan                                 int
		surfaces                                 []string
		p                                        *disambig.Problem
		out                                      *disambig.Output
	}
	pipeline := func(i int, record bool) stages {
		dr := &reqs[i]
		gen := st.serving(dr.domain)
		t := tr
		if !record {
			t = newTracer() // warm-up pass: spans are thrown away
		}
		var s stages
		root := t.begin("doc", -1, i, false)

		sp := t.begin("tokenizer.tokenize", root, i, false)
		tokens := tokenizer.Tokenize(dr.text)
		s.tokenize = t.end(sp)

		lex := &countingLexicon{Lexicon: gen.store}
		rec := ner.Recognizer{Lexicon: lex}
		sp = t.begin("ner.recognize", root, i, false)
		mentions := rec.RecognizeTokens(dr.text, tokens)
		s.recognize = t.end(sp)

		s.surfaces = ner.MentionSurfaces(mentions)
		wrapped, ts := wrapStore(gen.store)
		sp = t.begin("disambig.problem", root, i, false)
		p := disambig.NewProblemFromWords(wrapped, tokenizer.ContentWordsFromTokens(tokens), s.surfaces, maxCandidates)
		s.problem = t.end(sp)
		// The many small store calls of the problem builder, aggregated
		// into one child span per method, laid end to end from its start.
		at := t.spans[sp].StartNS
		t.add("kb.candidates", sp, i, at, ts.candidates)
		t.add("kb.entity", sp, i, at+int64(ts.candidates), ts.entity)

		p.Scorer = gen.engine
		p.CoherenceWorkers = 1
		p.ContextModel = dr.cm
		sp = t.begin("disambig.full", root, i, false)
		s.out = full.Disambiguate(p)
		s.full = t.end(sp)
		s.root = t.end(root)
		s.rootSpan = root

		s.tokens, s.mentions, s.lookups, s.calls, s.p = len(tokens), len(mentions), lex.lookups, ts.calls, p
		return s
	}
	// fresh builds an untouched problem for a probe: a problem caches its
	// cover matcher on first use, which a probe must pay like a request.
	fresh := func(i int, s *stages) *disambig.Problem {
		dr := &reqs[i]
		gen := st.serving(dr.domain)
		p := disambig.NewProblemFromWords(gen.store, s.p.ContextWords, s.surfaces, maxCandidates)
		p.Scorer, p.CoherenceWorkers, p.ContextModel = gen.engine, 1, dr.cm
		return p
	}

	if wl.warm {
		for i := range reqs {
			if _, err := sys.AnnotateDoc(ctx, reqs[i].text, reqs[i].spec.Options()...); err != nil {
				return err
			}
			pipeline(i, false)
		}
	}

	// The server the handler probe calls into: the same middleware chain,
	// no network.
	handlerSys, err := systemFor()
	if err != nil {
		return err
	}
	cfg := server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if wl.tenanted {
		if cfg.Tenants, err = server.NewTenants(in.tenants); err != nil {
			return err
		}
	}
	handler := server.New(handlerSys, cfg).Handler()

	// Engines of the relatedness probes, bound to the serving store: one
	// sees each document's pairs cold, then warm, then from all CPUs.
	mwEngine := relatedness.NewScorer(st.base.store)
	koreEngine := relatedness.NewScorer(st.base.store)

	var (
		m           = map[string][]float64{} // metric → per-document (or per-request) samples; the median is reported
		docSurfaces [][]string
		docEntities [][]kb.EntityID
	)
	add := func(name string, x float64) { m[name] = append(m[name], x) }

	for i := range reqs {
		dr := &reqs[i]
		// On a cold workload sys has annotated nothing yet and documents
		// never repeat, so it meets each one as the server does: cold.
		var doc *aida.Document
		d := timed(func() { doc, err = sys.AnnotateDoc(ctx, dr.text, dr.spec.Options()...) })
		if err != nil {
			return err
		}
		sink = doc
		add("aida.annotate_doc_us", us(d))
		add("aida.spec_resolve_us", us(timed(func() { err = sys.ValidateRequest(&dr.spec) })))
		if err != nil {
			return err
		}

		s := pipeline(i, true)
		root := s.rootSpan
		add("tokenizer.tokenize_us", us(s.tokenize))
		add("tokenizer.tokens_per_doc", float64(s.tokens))
		add("ner.recognize_us", us(s.recognize))
		add("ner.mentions_per_doc", float64(s.mentions))
		add("ner.lexicon_lookups_per_doc", float64(s.lookups))
		add("kb.store_calls_per_doc", float64(s.calls))
		add("disambig.problem_us", us(s.problem))
		add("disambig.full_us", us(s.full))
		add("disambig.comparisons_per_doc", float64(s.out.Stats.Comparisons))
		add("disambig.graph_entities_per_doc", float64(s.out.Stats.GraphEntities))
		cands := 0
		var entities []kb.EntityID
		for _, mt := range s.p.Mentions {
			cands += len(mt.Candidates)
			for _, c := range mt.Candidates {
				entities = append(entities, c.Entity)
			}
		}
		if s.mentions > 0 {
			add("disambig.candidates_per_mention", float64(cands)/float64(s.mentions))
		}
		docSurfaces = append(docSurfaces, s.surfaces)
		// The store probes run over the plain KB: leave out entities that
		// only a journaled delta added.
		docEntities = append(docEntities, slices.DeleteFunc(entities, func(e kb.EntityID) bool { return int(e) >= k.NumEntities() }))
		add("aida.stage_coverage", float64(s.tokenize+s.recognize+s.problem+s.full)/float64(d))
		add("trace.overhead_ratio", float64(s.root)/float64(d))

		// Probes: layers timed in isolation, beside the pipeline.
		probe := func(name string, fn func()) time.Duration {
			sp := tr.begin(name, root, i, true)
			fn()
			return tr.end(sp)
		}
		localD := probe("disambig.local", func() { sink = local.Disambiguate(fresh(i, &s)) })
		add("disambig.local_us", us(localD))
		add("disambig.joint_us", us(s.full-localD))
		add("disambig.sim_us", us(probe("disambig.sim", func() { sink = disambig.RawSimScores(fresh(i, &s)) })))
		add("disambig.expand_us", us(probe("disambig.expand", func() { sink = disambig.ExpandSurfaces(st.base.store, s.surfaces) })))
		// The context prior's cost on this document: build the model from
		// the document's keyphrase context and blend it into every mention.
		cp := fresh(i, &s)
		add("disambig.context_us", us(probe("disambig.context", func() {
			cm := contextModel(&aida.ContextSpec{Keyphrases: in.docs[i].context})
			if cm == nil {
				return
			}
			for mi := range cp.Mentions {
				cm.Blend(cp, mi, make([]float64, len(cp.Mentions[mi].Candidates)))
			}
		})))

		probeGraph(tr, root, i, s.p, mwEngine, add)
		probeRelatedness(tr, root, i, s.p, mwEngine, koreEngine, workers, add)
		if i < confDocs {
			cp := fresh(i, &s)
			add("emerge.conf_us", us(probe("emerge.conf", func() {
				sink = emerge.CONF(full, cp, s.out, emerge.PerturbConfig{Iterations: 10, Seed: 1})
			})))
		}

		if wl.batch == 0 {
			hd, err := probeHandler(tr, in, root, i, handler, &in.reqs[i])
			if err != nil {
				return err
			}
			add("server.handler_us", us(hd))
			add("server.overhead_us", us(hd-d))
		}
	}
	if wl.batch > 0 {
		// A batch workload's handler probe takes whole requests; what it is
		// held against is the same documents through AnnotateCorpus.
		equivSys, err := systemFor()
		if err != nil {
			return err
		}
		for ri := 0; ri < n/wl.batch; ri++ {
			rq := &in.reqs[ri]
			hd, err := probeHandler(tr, in, -1, rq.first, handler, rq)
			if err != nil {
				return err
			}
			texts := make([]string, rq.n)
			for j := range texts {
				texts[j] = in.docs[rq.first+j].text
			}
			cd := timed(func() { _, err = equivSys.AnnotateCorpus(ctx, texts, aida.WithParallelism(workers)) })
			if err != nil {
				return err
			}
			add("server.handler_us", us(hd))
			add("server.overhead_us", us(hd-cd))
		}
	}

	for name, xs := range m {
		v[name] = median(xs)
	}

	// pool: the same documents through AnnotateCorpus at one worker and at
	// all of them.
	texts := make([]string, n)
	for i := range texts {
		texts[i] = reqs[i].text
	}
	var rate [2]float64
	for j, par := range []int{1, workers} {
		csys, err := systemFor()
		if err != nil {
			return err
		}
		d := timed(func() { _, err = csys.AnnotateCorpus(ctx, texts, aida.WithParallelism(par)) })
		if err != nil {
			return err
		}
		rate[j] = float64(n) / d.Seconds()
	}
	v["pool.corpus_speedup"] = rate[1] / rate[0]

	if err := probeStores(in, k, sharded, docSurfaces, docEntities, v); err != nil {
		return err
	}

	// relatedness: snapshot and generation clone of the replay's warm
	// engine; kb: the overlay a next delta builds over the serving store.
	next := in.delta(wl.journal)
	var ov *kb.Overlay
	v["kb.overlay_build_ms"] = ms(timed(func() { ov, err = kb.NewOverlay(st.base.store, next) }))
	if err != nil {
		return err
	}
	v["relatedness.clone_for_ms"] = ms(timed(func() { sink = st.base.engine.CloneFor(ov, ov.Touched(), ov.Added() > 0) }))
	var snap bytes.Buffer
	v["relatedness.snapshot_save_ms"] = ms(timed(func() { err = st.base.engine.Save(&snap) }))
	if err != nil {
		return err
	}
	v["relatedness.snapshot_load_ms"] = ms(timed(func() { sink, err = relatedness.LoadScorer(&snap, st.base.store) }))
	if err != nil {
		return err
	}
	v["aida.apply_delta_ms"] = ms(timed(func() { _, err = sys.ApplyDelta(next) }))
	if err != nil {
		return err
	}
	return probeJournal(in, v)
}

// probeHandler sends one request through the server's handler chain with
// no network under it. A negative parent makes the span a root of its own.
func probeHandler(tr *tracer, in *inputs, parent, doc int, h http.Handler, rq *request) (time.Duration, error) {
	req, err := in.httpRequest("", rq)
	if err != nil {
		return 0, err
	}
	rec := &recorder{header: http.Header{}, status: http.StatusOK}
	sp := tr.begin("server.handler", parent, doc, parent >= 0)
	h.ServeHTTP(rec, req)
	d := tr.end(sp)
	if rec.status != http.StatusOK {
		return 0, fmt.Errorf("handler probe: status %d: %s", rec.status, bytes.TrimSpace(rec.body.Bytes()))
	}
	return d, nil
}

// probePairs lists the entity pairs of a problem the probes score: every
// two distinct entities among the top graphCandidates candidates of two
// different mentions, each pair once.
func probePairs(p *disambig.Problem) (nodes []kb.EntityID, nodeOf map[kb.EntityID]int, pairs [][2]int) {
	nodeOf = map[kb.EntityID]int{}
	top := func(mt *disambig.Mention) []disambig.Candidate {
		return mt.Candidates[:min(graphCandidates, len(mt.Candidates))]
	}
	for mi := range p.Mentions {
		for _, c := range top(&p.Mentions[mi]) {
			if _, ok := nodeOf[c.Entity]; !ok {
				nodeOf[c.Entity] = len(nodes)
				nodes = append(nodes, c.Entity)
			}
		}
	}
	seen := make([]bool, len(nodes)*len(nodes))
	for a := range p.Mentions {
		for b := a + 1; b < len(p.Mentions); b++ {
			for _, ca := range top(&p.Mentions[a]) {
				for _, cb := range top(&p.Mentions[b]) {
					x, y := nodeOf[ca.Entity], nodeOf[cb.Entity]
					if x == y {
						continue
					}
					if x > y {
						x, y = y, x
					}
					if !seen[x*len(nodes)+y] {
						seen[x*len(nodes)+y] = true
						pairs = append(pairs, [2]int{x, y})
					}
				}
			}
		}
	}
	return nodes, nodeOf, pairs
}

// probeRelatedness times the engine on the document's pairs: first sight
// (miss, compute, insert), again (hit), and again from every CPU at once
// (hits contending for the pair-cache shards).
func probeRelatedness(tr *tracer, root, doc int, p *disambig.Problem, mw, kore *relatedness.Scorer, workers int, add func(string, float64)) {
	nodes, _, pairs := probePairs(p)
	if len(pairs) == 0 {
		return
	}
	pass := func(e *relatedness.Scorer, kind relatedness.Kind, ps [][2]int) float64 {
		var sum float64
		for _, pr := range ps {
			sum += e.Relatedness(kind, nodes[pr[0]], nodes[pr[1]])
		}
		return sum
	}
	perPair := func(name string, ps [][2]int, fn func()) float64 {
		sp := tr.begin(name, root, doc, true)
		fn()
		return float64(tr.end(sp)) / float64(len(ps))
	}
	add("relatedness.pair_ns_cold.mw", perPair("relatedness.cold.mw", pairs, func() { sink = pass(mw, relatedness.KindMW, pairs) }))
	add("relatedness.pair_ns_warm.mw", perPair("relatedness.warm.mw", pairs, func() { sink = pass(mw, relatedness.KindMW, pairs) }))
	add("relatedness.pair_ns_warm_contended.mw", perPair("relatedness.warm_contended.mw", pairs, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pass(mw, relatedness.KindMW, pairs)
			}()
		}
		wg.Wait()
	}))
	few := pairs[:min(korePairs, len(pairs))]
	add("relatedness.pair_us_cold.kore", perPair("relatedness.cold.kore", few, func() { sink = pass(kore, relatedness.KindKORE, few) })/1000)
}

// probeGraph builds a graph from the document's problem — mention edges
// are priors, entity edges the engine's MW values — and solves it, timing
// the graph package alone: the weights are looked up before the clock
// starts.
func probeGraph(tr *tracer, root, doc int, p *disambig.Problem, engine *relatedness.Scorer, add func(string, float64)) {
	nodes, nodeOf, pairs := probePairs(p)
	weights := make([]float64, len(pairs))
	for i, pr := range pairs {
		weights[i] = engine.Relatedness(relatedness.KindMW, nodes[pr[0]], nodes[pr[1]])
	}
	var g *graph.Graph
	edges := 0
	sp := tr.begin("graph.build", root, doc, true)
	g = graph.New(len(p.Mentions), len(nodes))
	for mi := range p.Mentions {
		mt := &p.Mentions[mi]
		for _, c := range mt.Candidates[:min(graphCandidates, len(mt.Candidates))] {
			g.AddMentionEdge(mi, nodeOf[c.Entity], c.Prior)
		}
	}
	for i, pr := range pairs {
		if weights[i] > 0 {
			g.AddEntityEdge(pr[0], pr[1], weights[i])
			edges++
		}
	}
	add("graph.build_us", us(tr.end(sp)))
	sp = tr.begin("graph.solve", root, doc, true)
	sink = graph.Solve(g, graph.Options{})
	add("graph.solve_us", us(tr.end(sp)))
	add("graph.entity_edges_per_doc", float64(edges))
}

// probeStores times Candidates and Entity on each kb.Store implementation
// composed over the same KB, over the surfaces and candidate entities the
// replayed documents looked up. Reads take tens of nanoseconds, so each
// document's set is read storeReps times under one pair of clock reads.
func probeStores(in *inputs, k *kb.KB, sharded *kb.ShardedKB, surfaces [][]string, entities [][]kb.EntityID, v map[string]float64) error {
	const storeReps = 8
	overlay, err := kb.NewOverlay(k, in.delta(0))
	if err != nil {
		return err
	}
	domain, err := kb.NewDomainLayer(k, in.domains[0])
	if err != nil {
		return err
	}
	fl, err := startFleet(k, 2)
	if err != nil {
		return err
	}
	defer fl.stop()

	// The remote store first meets each document through the bulk call the
	// problem builder makes; per-call reads afterwards hit its caches.
	var bulk []float64
	for _, ss := range surfaces {
		bulk = append(bulk, us(timed(func() { sink = fl.remote.CandidatesBulk(ss) })))
	}
	v["kb.candidates_bulk_us.remote"] = median(bulk)

	stores := []struct {
		name  string
		store kb.Store
	}{{"kb", k}, {"sharded4", sharded}, {"overlay", overlay}, {"domain", domain}, {"remote", fl.remote}}
	for _, s := range stores {
		var cand, ent []float64
		for d := range surfaces {
			if len(surfaces[d]) > 0 {
				t := timed(func() {
					for r := 0; r < storeReps; r++ {
						for _, sf := range surfaces[d] {
							sink = s.store.Candidates(sf)
						}
					}
				})
				cand = append(cand, float64(t)/float64(storeReps*len(surfaces[d])))
			}
			if len(entities[d]) > 0 {
				t := timed(func() {
					for r := 0; r < storeReps; r++ {
						for _, id := range entities[d] {
							sink = s.store.Entity(id)
						}
					}
				})
				ent = append(ent, float64(t)/float64(storeReps*len(entities[d])))
			}
		}
		v["kb.candidates_ns."+s.name] = median(cand)
		v["kb.entity_ns."+s.name] = median(ent)
	}
	v["kb.remote_fetches_per_doc"] = float64(fl.remote.Stats().Requests) / float64(len(surfaces))
	return nil
}

// probeJournal appends deltas to a journal (one fsync each) and replays it.
func probeJournal(in *inputs, v map[string]float64) error {
	path := filepath.Join(in.dir, "journal.probe")
	j, err := live.OpenJournal(path)
	if err != nil {
		return err
	}
	var appends []float64
	const frames = 5
	for g := 0; g < frames; g++ {
		d := in.delta(g)
		appends = append(appends, ms(timed(func() { err = j.Append(d) })))
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	v["live.journal_append_ms"] = median(appends)
	var applied int
	v["live.journal_replay_ms"] = ms(timed(func() {
		applied, _, err = live.ReplayJournal(path, func(*kb.Delta) error { return nil })
	}))
	if err != nil {
		return err
	}
	if applied != frames {
		return errors.New("journal probe: replay lost frames")
	}
	return nil
}
