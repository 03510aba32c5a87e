package aida

import (
	"context"
	"iter"
	"runtime"
	"sync"

	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
	"aida/internal/pool"
	"aida/internal/tokenizer"
)

// Document is the result of annotating one document through the
// context-aware request API (AnnotateDoc, AnnotateCorpus, AnnotateStream).
// The always-present core is Annotations; the other fields are opt-in
// extras selected with AnnotateOptions, so the common path pays nothing
// for them.
type Document struct {
	// Index is the document's position within its corpus or stream
	// (always 0 for AnnotateDoc).
	Index int
	// Annotations are the recognized mentions with their linked entities,
	// in text order.
	Annotations []Annotation
	// Candidates holds, per mention, the materialized candidate list with
	// the method's final per-candidate scores attached (in the KB's
	// prior-sorted order). Nil unless IncludeCandidates was given.
	Candidates [][]RankedCandidate
	// Confidence holds the per-mention CONF confidence scores of
	// Chapter 5. Nil unless IncludeConfidence was given.
	Confidence []float64
	// Stats reports the disambiguation work counters. Nil unless
	// IncludeStats was given.
	Stats *Stats
}

// RankedCandidate is one scored disambiguation candidate of a mention,
// reported in Document.Candidates when IncludeCandidates is requested.
type RankedCandidate struct {
	Entity EntityID
	Label  string
	Prior  float64
	// Score is the method's final score for this candidate (0 for methods
	// that do not expose a per-candidate score vector).
	Score float64
}

// annotateOptions is a fully resolved request: the RequestSpec validated
// against the System's defaults, with the method constructed, the context
// model built, and the domain layer looked up.
type annotateOptions struct {
	method      Method
	maxCands    int
	expand      bool
	parallelism int
	withCands   bool
	confIters   int
	confSeed    int64
	withStats   bool
	requestID   string
	ctxModel    *disambig.ContextModel
	domain      *liveKB
}

// requestOptions folds the option list into one RequestSpec (catching
// duplicate-field conflicts) and resolves it against the System's
// defaults.
func (s *System) requestOptions(opts []AnnotateOption) (annotateOptions, error) {
	var spec RequestSpec
	for _, opt := range opts {
		if opt != nil {
			opt(&spec)
		}
	}
	return s.resolveSpec(&spec)
}

// resolveSpec validates a merged RequestSpec and resolves every field
// against the System's defaults. All request validation lives here — the
// Go options path and the HTTP server's JSON path produce identical
// errors because both end up in this one function.
func (s *System) resolveSpec(spec *RequestSpec) (annotateOptions, error) {
	o := annotateOptions{
		method:   s.Method,
		maxCands: s.MaxCandidates,
		expand:   s.ExpandSurfaces,
	}
	if spec.err != nil {
		return o, spec.err
	}
	switch {
	case spec.method != nil:
		o.method = spec.method
	case spec.Method != "" || spec.has(fieldMethod):
		m, err := MethodByName(spec.Method)
		if err != nil {
			return o, &InvalidRequestError{Err: err}
		}
		o.method = m
	}
	if o.method == nil {
		o.method = NewAIDAMethod()
	}
	if spec.Parallelism < 0 {
		return o, invalidRequestf("invalid parallelism %d: must be >= 0 (0 means the default)", spec.Parallelism)
	}
	o.parallelism = spec.Parallelism
	if spec.MaxCandidates != nil {
		o.maxCands = *spec.MaxCandidates
	}
	if spec.Expand != nil {
		o.expand = *spec.Expand
	}
	o.withCands = spec.Candidates
	if spec.Confidence != nil {
		o.confIters = spec.Confidence.Iterations
		if o.confIters <= 0 {
			o.confIters = 10
		}
		o.confSeed = spec.Confidence.Seed
	}
	o.withStats = spec.Stats
	o.requestID = spec.RequestID
	if c := spec.Context; c != nil {
		if len(c.Keyphrases) > MaxContextKeyphrases {
			return o, invalidRequestf("context too large: %d keyphrases exceed the limit of %d", len(c.Keyphrases), MaxContextKeyphrases)
		}
		if len(c.Entities) > MaxContextEntities {
			return o, invalidRequestf("context too large: %d entities exceed the limit of %d", len(c.Entities), MaxContextEntities)
		}
		if c.Weight < 0 || c.Weight > 1 {
			return o, invalidRequestf("invalid context weight %v: must be in [0, 1]", c.Weight)
		}
		if len(c.Keyphrases) > 0 || len(c.Entities) > 0 {
			cm := &disambig.ContextModel{Weight: c.Weight}
			for _, kp := range c.Keyphrases {
				cm.Words = append(cm.Words, tokenizer.ContentWords(kp)...)
			}
			if len(c.Entities) > 0 {
				cm.Entities = make(map[EntityID]bool, len(c.Entities))
				for _, id := range c.Entities {
					cm.Entities[id] = true
				}
			}
			o.ctxModel = cm
		}
	}
	if spec.Domain != "" {
		lv, err := s.domainLive(spec.Domain)
		if err != nil {
			return o, err
		}
		o.domain = lv
	}
	return o, nil
}

// ValidateRequest resolves a request spec against the System without
// annotating anything: nil means an equivalent AnnotateDoc call would
// accept the request; otherwise the returned error is exactly the one the
// annotate call would produce (an InvalidRequestError for client
// mistakes). The HTTP server pre-validates streaming batch requests with
// it, so a bad spec gets a clean 400 instead of failing mid-stream.
func (s *System) ValidateRequest(spec *RequestSpec) error {
	_, err := s.requestOptions(spec.Options())
	return err
}

// annotateOne runs the full pipeline for one document under the resolved
// request options. coherenceWorkers = 1 pins per-document coherence
// scoring to one goroutine (used under document-level fan-out), 0 keeps
// the method's own default; the override never changes results, only
// scheduling. ctx cancels in-flight scoring; on cancellation the partial
// output is discarded and ctx.Err() returned.
func (s *System) annotateOne(ctx context.Context, text string, o annotateOptions, coherenceWorkers int) (doc *Document, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A remote-backed KB (kb.RemoteStore) has no error returns on the Store
	// read surface: a shard whose every replica failed surfaces as a panic
	// carrying *kb.RemoteError. Convert it to a request error here — the one
	// funnel every annotation passes through — so callers (and the HTTP
	// server) see a failed request, not a crashed process. Any other panic
	// is a real bug and propagates.
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*kb.RemoteError)
			if !ok {
				panic(r)
			}
			doc, err = nil, re
		}
	}()
	// Load the serving KB generation exactly once: recognition, candidate
	// materialization and scoring below all run against this one (store,
	// engine) pair, so a concurrent ApplyDelta can never hand this document
	// a torn read — it finishes on the generation it started with. A
	// request routed into a domain (WithDomain) resolved its layer during
	// option resolution; the layer carries its own (store, engine) pair.
	lv := o.domain
	if lv == nil {
		lv = s.live.Load()
	}
	// Tokenize once: recognition and context-word extraction share the
	// same token stream (the context words of a document are a pure
	// function of its tokens, so the annotations are unchanged).
	tokens := tokenizer.Tokenize(text)
	rec := s.recognizer
	rec.Lexicon = lv.store
	mentions := rec.RecognizeTokens(text, tokens)
	surfaces := make([]string, len(mentions))
	for i, m := range mentions {
		surfaces[i] = m.Text
	}
	if o.expand {
		surfaces = disambig.ExpandSurfaces(lv.store, surfaces)
	}
	p := disambig.NewProblemFromWords(lv.store, tokenizer.ContentWordsFromTokens(tokens), surfaces, o.maxCands)
	p.Scorer = lv.engine
	p.CoherenceWorkers = coherenceWorkers
	p.Context = ctx
	p.ContextModel = o.ctxModel
	out := o.method.Disambiguate(p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	doc = &Document{Annotations: make([]Annotation, len(mentions))}
	for i, m := range mentions {
		r := out.Results[i]
		doc.Annotations[i] = Annotation{Mention: m, Entity: r.Entity, Label: r.Label, Score: r.Score}
	}
	if o.withCands {
		doc.Candidates = rankedCandidates(p, out)
	}
	if o.confIters > 0 {
		doc.Confidence = emerge.CONF(o.method, p, out, emerge.PerturbConfig{Iterations: o.confIters, Seed: o.confSeed})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if o.withStats {
		st := out.Stats
		st.RequestID = o.requestID
		doc.Stats = &st
	}
	return doc, nil
}

// rankedCandidates pairs each mention's materialized candidates with the
// method's final score vector.
func rankedCandidates(p *disambig.Problem, out *disambig.Output) [][]RankedCandidate {
	all := make([][]RankedCandidate, len(p.Mentions))
	for i := range p.Mentions {
		m := &p.Mentions[i]
		scores := out.Results[i].Scores
		rc := make([]RankedCandidate, len(m.Candidates))
		for j := range m.Candidates {
			c := &m.Candidates[j]
			rc[j] = RankedCandidate{Entity: c.Entity, Label: c.Label, Prior: c.Prior}
			if j < len(scores) {
				rc[j].Score = scores[j]
			}
		}
		all[i] = rc
	}
	return all
}

// AnnotateDoc runs the full pipeline — recognition plus disambiguation —
// on one document. ctx cancels in-flight scoring promptly (the coherence
// workers observe it); options select the method, candidate cap, surface
// expansion, coherence parallelism and opt-in extras for this request
// only. The annotations are byte-identical at any parallelism.
func (s *System) AnnotateDoc(ctx context.Context, text string, opts ...AnnotateOption) (*Document, error) {
	o, err := s.requestOptions(opts)
	if err != nil {
		return nil, err
	}
	return s.annotateOne(ctx, text, o, o.parallelism)
}

// AnnotateCorpus annotates a slice of documents concurrently with a
// bounded worker pool (WithParallelism; default GOMAXPROCS) and returns
// the documents in input order. On cancellation it stops handing out
// documents, waits for in-flight workers, and returns ctx.Err(); no
// partial result is returned. The annotations are byte-identical to a
// sequential AnnotateDoc loop at any parallelism, because the shared engine memoizes only pure functions
// of the KB.
func (s *System) AnnotateCorpus(ctx context.Context, docs []string, opts ...AnnotateOption) ([]*Document, error) {
	o, err := s.requestOptions(opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Document, len(docs))
	workers := batchWorkers(o.parallelism, len(docs))
	if workers <= 1 {
		// One document at a time. An explicit parallelism is the total
		// concurrency budget, so it bounds each document's coherence pool
		// (parallelism 1 means one goroutine in total, not one document at
		// a time each fanning out to GOMAXPROCS); parallelism 0 keeps the
		// method default.
		for i, d := range docs {
			doc, err := s.annotateOne(ctx, d, o, o.parallelism)
			if err != nil {
				return nil, err
			}
			doc.Index = i
			out[i] = doc
		}
		return out, nil
	}
	// Parallelism comes from the document pool; pin each document's
	// coherence scoring to one goroutine so a P-worker corpus schedules P
	// goroutines, not P².
	err = pool.ForEachCtx(ctx, len(docs), workers, func(i int) error {
		doc, err := s.annotateOne(ctx, docs[i], o, 1)
		if err != nil {
			return err
		}
		doc.Index = i
		out[i] = doc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnnotateStream annotates an arbitrary document sequence: documents are
// fanned out to a bounded worker pool (WithParallelism; default
// GOMAXPROCS) while results are yielded strictly in input order, each as
// soon as it and all its predecessors are done. Memory stays bounded by
// the worker count rather than the corpus size, so it suits indefinite
// feeds (news streams, queue consumers); for in-memory slices
// AnnotateCorpus is simpler.
//
// Breaking out of the range loop stops the workers and the input pull
// without leaking goroutines. When ctx is canceled the stream stops
// pulling input, drains its workers, and ends by yielding (nil,
// ctx.Err()) — a nil error on every yielded pair therefore means the
// sequence was annotated completely. The yielded annotations are
// byte-identical to AnnotateCorpus at any parallelism.
func (s *System) AnnotateStream(ctx context.Context, docs iter.Seq[string], opts ...AnnotateOption) iter.Seq2[*Document, error] {
	return func(yield func(*Document, error) bool) {
		o, err := s.requestOptions(opts)
		if err != nil {
			yield(nil, err)
			return
		}
		workers := batchWorkers(o.parallelism, -1)
		if workers <= 1 {
			// workers == 1 means the caller asked for parallelism 1 or
			// GOMAXPROCS is 1; either way the whole sequence runs on one
			// goroutine, so the per-document coherence pool is pinned too.
			i := 0
			for d := range docs {
				doc, err := s.annotateOne(ctx, d, o, 1)
				if err != nil {
					yield(nil, err)
					return
				}
				doc.Index = i
				if !yield(doc, nil) {
					return
				}
				i++
			}
			return
		}
		type job struct {
			i    int
			text string
		}
		type res struct {
			i   int
			doc *Document
			err error
		}
		stop := make(chan struct{})
		defer close(stop)
		jobs := make(chan job, workers)
		results := make(chan res, workers)
		go func() { // producer
			defer close(jobs)
			i := 0
			for d := range docs {
				select {
				case jobs <- job{i: i, text: d}:
					i++
				case <-stop:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					doc, err := s.annotateOne(ctx, j.text, o, 1)
					if doc != nil {
						doc.Index = j.i
					}
					select {
					case results <- res{i: j.i, doc: doc, err: err}:
						if err != nil {
							return
						}
					case <-stop:
						return
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(results)
		}()
		// Reorder: emit document i only after 0..i-1 have been emitted.
		// annotateOne always returns a non-nil document on success, so
		// presence in pending is enough to mark a document done.
		pending := make(map[int]*Document, workers)
		next := 0
		for r := range results {
			if r.err != nil {
				yield(nil, r.err)
				return
			}
			pending[r.i] = r.doc
			for {
				doc, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if !yield(doc, nil) {
					return
				}
				next++
			}
		}
		// The producer may have stopped pulling input on cancellation
		// without any worker observing ctx (all drained jobs finished
		// first). Surface the truncation instead of ending as a success.
		if err := ctx.Err(); err != nil {
			yield(nil, err)
		}
	}
}

// batchWorkers resolves the worker count for a document fan-out; n < 0
// means the document count is unknown (streaming).
func batchWorkers(parallelism, n int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n >= 0 && w > n {
		w = n
	}
	return w
}
