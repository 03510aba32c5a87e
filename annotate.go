package aida

import (
	"context"
	"iter"
	"runtime"
	"slices"
	"strings"

	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/ner"
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
	// Annotations are the recognized (or given, WithMentions) mentions
	// with their linked entities, in text order.
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
	mentions    []string // given mention surfaces; nil means recognize
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
	o := annotateOptions{method: s.Method, maxCands: s.MaxCandidates}
	if spec.err != nil {
		return o, spec.err
	}
	if spec.Method != "" || spec.has(fieldMethod) {
		m, err := MethodByName(spec.Method)
		if err != nil {
			return o, &InvalidRequestError{Err: err}
		}
		o.method = m
	}
	if o.method == nil {
		o.method = disambig.NewAIDA()
	}
	if spec.Parallelism < 0 {
		return o, invalidRequestf("invalid parallelism %d: must be >= 0 (0 means the default)", spec.Parallelism)
	}
	if spec.Parallelism > MaxParallelism {
		return o, invalidRequestf("too much parallelism: %d exceeds the limit of %d", spec.Parallelism, MaxParallelism)
	}
	o.parallelism = spec.Parallelism
	// A System cap is a ceiling: a request may lower it, never lift it, so
	// 0, negative and larger values keep it.
	if n := spec.MaxCandidates; n != nil && (s.MaxCandidates <= 0 || (*n > 0 && *n < s.MaxCandidates)) {
		o.maxCands = *n
	}
	if spec.Expand != nil {
		o.expand = *spec.Expand
	}
	if spec.has(fieldMentions) {
		for i, m := range spec.Mentions {
			if m == "" {
				return o, invalidRequestf("invalid mentions: surface %d is empty", i)
			}
		}
		o.mentions = spec.Mentions
		if o.mentions == nil {
			o.mentions = []string{} // WithMentions(): a document without mentions
		}
	}
	o.withCands = spec.Candidates
	if spec.Confidence != nil {
		o.confIters = spec.Confidence.Iterations
		if o.confIters > MaxConfidenceIterations {
			return o, invalidRequestf("too many confidence iterations: %d exceeds the limit of %d", o.confIters, MaxConfidenceIterations)
		}
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
// mistakes). Only given mentions the text does not hold pass here and
// fail the annotate call, because only the text can tell. The HTTP server
// pre-validates streaming batch requests with it, so a bad spec gets a
// clean 400 instead of failing mid-stream.
func (s *System) ValidateRequest(spec *RequestSpec) error {
	_, err := s.requestOptions(spec.Options())
	return err
}

// annotateOne runs the full pipeline for one document under the resolved
// request options, on the calling goroutine. ctx cancels in-flight
// scoring; on cancellation the partial output is discarded and ctx.Err()
// returned.
func (s *System) annotateOne(ctx context.Context, text string, o annotateOptions) (_ *Document, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Every annotation passes through here, so a failed remote shard
	// becomes this request's error.
	defer recoverRemote(&err)
	// Load the serving KB generation exactly once: recognition, candidate
	// materialization and scoring below all run against this one store, so
	// a concurrent ApplyDelta can never hand this document a torn read — it
	// finishes on the generation it started with. A request routed into a
	// domain (WithDomain) resolved its layer during option resolution.
	lv := o.domain
	if lv == nil {
		lv = s.live.Load()
	}
	// Tokenize once: recognition and context-word extraction share the
	// same token stream (the context words of a document are a pure
	// function of its tokens, so the annotations are unchanged).
	tokens := tokenizer.Tokenize(text)
	var mentions []ner.Mention
	if o.mentions != nil {
		if mentions, err = locateMentions(text, tokens, o.mentions); err != nil {
			return nil, err
		}
	} else {
		rec := s.recognizer
		rec.Lexicon = lv.store
		mentions = rec.RecognizeTokens(text, tokens)
	}
	surfaces := ner.MentionSurfaces(mentions)
	if o.expand {
		surfaces = disambig.ExpandSurfaces(lv.store, surfaces)
	}
	p := disambig.NewProblemFromWords(lv.store, tokenizer.ContentWordsFromTokens(tokens), surfaces, o.maxCands)
	p.Context = ctx
	p.ContextModel = o.ctxModel
	out := o.method.Disambiguate(p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	doc := &Document{Annotations: make([]Annotation, len(mentions))}
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

// locateMentions places given mention surfaces in the text left to right,
// each at its first whole-token occurrence at or after the previous
// mention's end: the surface starts where a token starts and ends where a
// token ends, so "Paris" is not found inside "Parisian". The token and
// sentence indexes are those of the covered tokens, as for a recognized
// mention.
func locateMentions(text string, tokens []tokenizer.Token, surfaces []string) ([]ner.Mention, error) {
	mentions := make([]ner.Mention, len(surfaces))
	at, next := 0, 0 // byte and token index the next search starts from
	for i, surface := range surfaces {
		found := false
		for k := next; k < len(tokens) && !found; k++ {
			start := tokens[k].Start
			if !strings.HasPrefix(text[start:], surface) {
				continue
			}
			end := start + len(surface)
			e := k
			for e < len(tokens) && tokens[e].End < end {
				e++
			}
			if e < len(tokens) && tokens[e].End == end {
				mentions[i] = ner.Mention{Text: surface, Start: start, End: end,
					TokenStart: k, TokenEnd: e + 1, Sentence: tokens[k].Sentence}
				at, next, found = end, e+1, true
			}
		}
		if !found {
			return nil, invalidRequestf("invalid mentions: surface %d (%q) not found as whole tokens in the text at or after byte %d", i, surface, at)
		}
	}
	return mentions, nil
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

// AnnotateDoc runs the full pipeline — recognition (or the given mentions
// of WithMentions) plus disambiguation — on one document, on the calling
// goroutine. ctx cancels in-flight scoring promptly (coherence scoring
// checks it between rows); options select the method, candidate cap,
// surface expansion, context, domain and opt-in extras for this request
// only. WithParallelism is validated and otherwise has no effect here.
func (s *System) AnnotateDoc(ctx context.Context, text string, opts ...AnnotateOption) (*Document, error) {
	o, err := s.requestOptions(opts)
	if err != nil {
		return nil, err
	}
	return s.annotateOne(ctx, text, o)
}

// AnnotateCorpus annotates a slice of documents and returns them in input
// order: it collects AnnotateStream over the slice, so fan-out width,
// cancellation, determinism and the options it rejects are the stream's.
// An error — a failing document or a canceled ctx — returns (nil, err); no
// partial result is returned.
func (s *System) AnnotateCorpus(ctx context.Context, docs []string, opts ...AnnotateOption) ([]*Document, error) {
	out := make([]*Document, 0, len(docs))
	for doc, err := range s.AnnotateStream(ctx, slices.Values(docs), opts...) {
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	}
	return out, nil
}

// AnnotateStream annotates an arbitrary document sequence and is the one
// multi-document engine (AnnotateCorpus collects it). A producer goroutine
// pulls the input and queues one future per document, in input order; at
// most P documents (WithParallelism; default GOMAXPROCS) are annotated at
// once, each on its own goroutine. Results are yielded strictly in input
// order, each as soon as it and all its predecessors are done.
//
// The producer runs at most 2·P documents ahead of the one being yielded,
// so memory is bounded by the parallelism rather than the input — the
// stream suits indefinite feeds (news streams, queue consumers) even when
// one slow document holds up the head of the line.
//
// Breaking out of the range loop cancels the in-flight documents and the
// input pull without leaking goroutines. A failing document k ends the
// stream with (nil, err) after documents 0..k-1. When ctx is canceled the
// stream stops pulling input and ends by yielding (nil, ctx.Err()) — a nil
// error on every yielded pair therefore means the sequence was annotated
// completely. The yielded annotations are byte-identical to an AnnotateDoc
// loop at any parallelism, because no document reads state another one
// wrote. Given mentions (WithMentions) belong to one document, so the
// stream rejects them with an InvalidRequestError.
func (s *System) AnnotateStream(ctx context.Context, docs iter.Seq[string], opts ...AnnotateOption) iter.Seq2[*Document, error] {
	return func(yield func(*Document, error) bool) {
		o, err := s.requestOptions(opts)
		if err == nil && o.mentions != nil {
			err = invalidRequestf("mentions belong to one document: annotate it with AnnotateDoc")
		}
		if err != nil {
			yield(nil, err)
			return
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type result struct {
			doc *Document
			err error
		}
		p := o.parallelism
		if p <= 0 {
			p = runtime.GOMAXPROCS(0)
		}
		slots := make(chan struct{}, p)
		// The run-ahead window: with room for only the P documents being
		// annotated, a slow document at the head would idle the other slots
		// until it is yielded; a second P keeps them fed.
		futures := make(chan chan result, 2*p)
		go func() { // producer
			defer close(futures)
			i := 0
			for d := range docs {
				f := make(chan result, 1)
				select {
				case futures <- f:
				case <-ctx.Done():
					return
				}
				// Always granted: every holder returns its slot, promptly
				// once ctx is canceled.
				slots <- struct{}{}
				go func(i int) {
					doc, err := s.annotateOne(ctx, d, o)
					if doc != nil {
						doc.Index = i
					}
					<-slots
					f <- result{doc, err}
				}(i)
				i++
			}
		}()
		for f := range futures {
			r := <-f
			if r.err != nil {
				yield(nil, r.err)
				return
			}
			if !yield(r.doc, nil) {
				return
			}
		}
		// The producer may have stopped pulling input on cancellation with
		// every queued document already annotated. Surface the truncation
		// instead of ending as a success.
		if err := ctx.Err(); err != nil {
			yield(nil, err)
		}
	}
}
