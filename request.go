package aida

import "fmt"

// RequestSpec is the declarative form of one annotation request: every
// per-request knob of AnnotateDoc/AnnotateCorpus/AnnotateStream as a plain
// JSON-taggable struct. The functional options (UseMethodNamed,
// WithContext, …) are thin wrappers that each set one field of a spec
// (MaxCandidates and Expand have none); Options() goes the other way,
// turning a filled-in spec — decoded from JSON by the HTTP server, or
// built literally by a Go caller — into the option list the annotate
// entry points accept. Both routes resolve through the same
// validation, so an error surfaces with identical text whether the request
// came through the Go API or over HTTP.
//
// Merge rule: options apply field-wise, later fields overriding nothing —
// setting the same field twice (two UseMethodNamed calls, or a spec field
// plus the matching option) is a conflict and fails the request with an
// InvalidRequestError naming the field, never a silent last-one-wins. A
// field left at its zero value (or nil pointer) keeps the System default.
type RequestSpec struct {
	// Method selects the disambiguation method by the selector names of
	// MethodByName ("aida", "prior", "sim", "cuc", "kul-ci", "tagme",
	// "iw"; empty keeps the System's method).
	Method string `json:"method,omitempty"`
	// Parallelism bounds the request's concurrency (see WithParallelism).
	// 0 means the default; negative values are rejected.
	Parallelism int `json:"parallelism,omitempty"`
	// MaxCandidates, when non-nil, caps the candidates per mention. A
	// System cap (WithMaxCandidates) is a ceiling: a value below it lowers
	// the cap, and 0, negative or larger values keep it. On a System
	// without a cap, 0 or less means no cap.
	MaxCandidates *int `json:"max_candidates,omitempty"`
	// Expand, when true, turns on the within-document coreference
	// heuristic: single-word mentions are expanded to a longer mention of
	// the same document containing them ("Carter" → "Rubin Carter").
	Expand *bool `json:"surface_expansion,omitempty"`
	// Mentions, when non-nil, are the document's mention surfaces, in
	// text order: recognition is skipped and exactly these mentions are
	// linked (WithMentions); an empty list links nothing. AnnotateDoc
	// only.
	Mentions []string `json:"mentions,omitempty"`
	// Candidates asks for the per-mention scored candidate lists
	// (IncludeCandidates).
	Candidates bool `json:"candidates,omitempty"`
	// Confidence, when non-nil, asks for per-mention CONF confidence
	// scores (IncludeConfidence).
	Confidence *ConfidenceSpec `json:"confidence,omitempty"`
	// Stats asks for the disambiguation work counters (IncludeStats).
	Stats bool `json:"stats,omitempty"`
	// Context is the request's interest model — the short-text context
	// prior (WithContext / WithContextEntities / WithContextWeight).
	Context *ContextSpec `json:"context,omitempty"`
	// Domain selects a registered per-domain dictionary layer by name
	// (WithDomain); empty means the base KB.
	Domain string `json:"domain,omitempty"`
	// RequestID labels the request with a caller-chosen trace id
	// (WithRequestID).
	RequestID string `json:"request_id,omitempty"`

	// set tracks which fields an option has written, for conflict
	// detection; err records the first conflict.
	set specField
	err error
}

// ConfidenceSpec configures the CONF confidence assessor of a request
// (Chapter 5): the perturbation iteration count (≤ 0 falls back to 10; at
// most MaxConfidenceIterations) and the seed fixing the perturbation
// randomness.
type ConfidenceSpec struct {
	Iterations int   `json:"iterations,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
}

// ContextSpec is a request-supplied interest model for the short-text
// context prior: keyphrases (a user profile, the enclosing page, a search
// query) and/or entity ids the requester cares about, plus the blend
// weight. An empty spec (no keyphrases, no entities) is a no-op — output
// is byte-identical to a request without a context.
type ContextSpec struct {
	// Keyphrases are free-text phrases describing the request's interest
	// context; their content words are matched against candidate entity
	// keyphrases with the same cover machinery as sim-k. At most
	// MaxContextKeyphrases per request.
	Keyphrases []string `json:"keyphrases,omitempty"`
	// Entities are interest entity ids; candidates in the set (or linked
	// from it) get affinity mass. At most MaxContextEntities per request.
	Entities []EntityID `json:"entities,omitempty"`
	// Weight is the blend weight in [0, 1]; 0 means the default
	// (disambig.DefaultContextWeight). Values outside [0, 1] are
	// rejected.
	Weight float64 `json:"weight,omitempty"`
}

// Request size caps: a context is a hint, not a second document.
// Oversized requests are rejected with an InvalidRequestError rather than
// silently truncated.
const (
	// MaxContextKeyphrases bounds ContextSpec.Keyphrases.
	MaxContextKeyphrases = 64
	// MaxContextEntities bounds ContextSpec.Entities.
	MaxContextEntities = 256
	// MaxConfidenceIterations bounds ConfidenceSpec.Iterations: the
	// dissertation's largest perturbation count. Each round re-solves the
	// document, so an unbounded count would pin a worker indefinitely.
	MaxConfidenceIterations = 500
	// MaxParallelism bounds RequestSpec.Parallelism: the streaming paths
	// size their in-flight buffers from it.
	MaxParallelism = 1024
)

// InvalidRequestError marks a request rejected during option resolution —
// an unknown method or domain, negative or oversized parallelism, an
// oversized or out-of-range context, too many confidence iterations, a
// given mention that is empty or not in the text, or conflicting duplicate
// options. The HTTP server maps it to 400 with the identical message;
// anything else stays a server error.
type InvalidRequestError struct{ Err error }

func (e *InvalidRequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *InvalidRequestError) Unwrap() error { return e.Err }

// invalidRequestf builds an InvalidRequestError from a format string.
func invalidRequestf(format string, args ...any) error {
	return &InvalidRequestError{Err: fmt.Errorf(format, args...)}
}

// specField is a bitmask of RequestSpec fields an option has set.
type specField uint

const (
	fieldMethod specField = 1 << iota
	fieldParallelism
	fieldMaxCandidates
	fieldExpand
	fieldMentions
	fieldCandidates
	fieldConfidence
	fieldStats
	fieldContextKeyphrases
	fieldContextEntities
	fieldContextWeight
	fieldDomain
	fieldRequestID
)

// fieldNames names each spec field as its JSON key (the name conflicts are
// reported under; docs/API.md carries the same mapping).
var fieldNames = map[specField]string{
	fieldMethod:            "method",
	fieldParallelism:       "parallelism",
	fieldMaxCandidates:     "max_candidates",
	fieldExpand:            "surface_expansion",
	fieldMentions:          "mentions",
	fieldCandidates:        "candidates",
	fieldConfidence:        "confidence",
	fieldStats:             "stats",
	fieldContextKeyphrases: "context.keyphrases",
	fieldContextEntities:   "context.entities",
	fieldContextWeight:     "context.weight",
	fieldDomain:            "domain",
	fieldRequestID:         "request_id",
}

func (r *RequestSpec) has(f specField) bool { return r.set&f != 0 }

// mark records that an option set field f, detecting duplicates. The first
// conflict wins; resolution reports it before any other validation.
func (r *RequestSpec) mark(f specField) {
	if r.has(f) && r.err == nil {
		r.err = invalidRequestf("conflicting annotate options: %s given more than once", fieldNames[f])
	}
	r.set |= f
}

// context returns the spec's context model, allocating it on first use.
func (r *RequestSpec) context() *ContextSpec {
	if r.Context == nil {
		r.Context = &ContextSpec{}
	}
	return r.Context
}

// Options turns a filled-in spec into the option list the annotate entry
// points accept: sys.AnnotateDoc(ctx, text, spec.Options()...). Each
// present field applies as if its constructor option had been passed, so
// combining spec.Options() with further options of the same field is
// detected as a conflict like any other duplicate.
func (r *RequestSpec) Options() []AnnotateOption {
	return []AnnotateOption{func(dst *RequestSpec) { r.mergeInto(dst) }}
}

// mergeInto applies every present field of r to dst under conflict
// detection. A field is present when it is non-zero (non-nil) or was
// explicitly set by an option (its set bit).
func (r *RequestSpec) mergeInto(dst *RequestSpec) {
	if r.err != nil && dst.err == nil {
		dst.err = r.err
	}
	if r.Method != "" || r.has(fieldMethod) {
		dst.Method = r.Method
		dst.mark(fieldMethod)
	}
	if r.Parallelism != 0 || r.has(fieldParallelism) {
		dst.Parallelism = r.Parallelism
		dst.mark(fieldParallelism)
	}
	if r.MaxCandidates != nil {
		n := *r.MaxCandidates
		dst.MaxCandidates = &n
		dst.mark(fieldMaxCandidates)
	}
	if r.Expand != nil {
		b := *r.Expand
		dst.Expand = &b
		dst.mark(fieldExpand)
	}
	if r.Mentions != nil || r.has(fieldMentions) {
		dst.Mentions = r.Mentions
		dst.mark(fieldMentions)
	}
	if r.Candidates || r.has(fieldCandidates) {
		dst.Candidates = r.Candidates
		dst.mark(fieldCandidates)
	}
	if r.Confidence != nil {
		c := *r.Confidence
		dst.Confidence = &c
		dst.mark(fieldConfidence)
	}
	if r.Stats || r.has(fieldStats) {
		dst.Stats = r.Stats
		dst.mark(fieldStats)
	}
	if c := r.Context; c != nil {
		if len(c.Keyphrases) > 0 || r.has(fieldContextKeyphrases) {
			dst.context().Keyphrases = c.Keyphrases
			dst.mark(fieldContextKeyphrases)
		}
		if len(c.Entities) > 0 || r.has(fieldContextEntities) {
			dst.context().Entities = c.Entities
			dst.mark(fieldContextEntities)
		}
		if c.Weight != 0 || r.has(fieldContextWeight) {
			dst.context().Weight = c.Weight
			dst.mark(fieldContextWeight)
		}
	}
	if r.Domain != "" || r.has(fieldDomain) {
		dst.Domain = r.Domain
		dst.mark(fieldDomain)
	}
	if r.RequestID != "" || r.has(fieldRequestID) {
		dst.RequestID = r.RequestID
		dst.mark(fieldRequestID)
	}
}

// AnnotateOption configures one annotation request by setting fields of
// its RequestSpec. Options apply to a single AnnotateDoc/AnnotateCorpus/
// AnnotateStream call and never mutate the System, so concurrent requests
// with different options are safe. Request defaults come from the System
// (its Method and MaxCandidates settings); setting the same field twice is
// a conflict, not an override (see RequestSpec).
type AnnotateOption func(*RequestSpec)

// UseMethodNamed selects the disambiguation method for this request only
// (default: the System's method) by the selector names of MethodByName
// ("aida", "prior", "sim", "cuc", "kul-ci", "tagme", "iw",
// case-insensitive; empty = "aida"). Methods are stateless, so any method
// may serve concurrent requests. An unknown name surfaces as the
// request's error (an InvalidRequestError).
func UseMethodNamed(name string) AnnotateOption {
	return func(o *RequestSpec) {
		o.Method = name
		o.mark(fieldMethod)
	}
}

// WithParallelism bounds the request's concurrency: for AnnotateStream and
// AnnotateCorpus it is the number of documents annotated at once, each on
// one goroutine. AnnotateDoc annotates its one document on the calling
// goroutine and only validates the value. n = 0 means GOMAXPROCS; negative
// values and values above MaxParallelism are rejected during resolution.
// Parallelism changes scheduling only — the annotations are byte-identical
// at every setting.
func WithParallelism(n int) AnnotateOption {
	return func(o *RequestSpec) {
		o.Parallelism = n
		o.mark(fieldParallelism)
	}
}

// WithMentions supplies the document's mention surfaces, in text order,
// in place of recognition: the paper's setting of linking given mention
// spans. Each surface is located at its first whole-token occurrence at
// or after the end of the previous one ("Page" is not found inside
// "Pageant"), which gives its Annotation.Mention its offsets and its token
// and sentence indexes. An empty surface, or one the text does not hold
// there, fails the request with an
// InvalidRequestError; no surfaces at all is a document without mentions.
// Every other option composes with it as usual.
// Mentions belong to one document, so AnnotateCorpus and AnnotateStream
// reject the option.
func WithMentions(surfaces ...string) AnnotateOption {
	return func(o *RequestSpec) {
		o.Mentions = surfaces
		o.mark(fieldMentions)
	}
}

// IncludeCandidates asks for the per-mention scored candidate lists in
// Document.Candidates.
func IncludeCandidates() AnnotateOption {
	return func(o *RequestSpec) {
		o.Candidates = true
		o.mark(fieldCandidates)
	}
}

// IncludeConfidence asks for per-mention CONF confidence scores
// (normalized weighted degree + entity perturbation, Chapter 5) in
// Document.Confidence. iterations ≤ 0 falls back to 10, and more than
// MaxConfidenceIterations is rejected; seed fixes the perturbation
// randomness so repeated requests agree.
func IncludeConfidence(iterations int, seed int64) AnnotateOption {
	return func(o *RequestSpec) {
		o.Confidence = &ConfidenceSpec{Iterations: iterations, Seed: seed}
		o.mark(fieldConfidence)
	}
}

// IncludeStats asks for the disambiguation work counters (pairwise
// comparisons, graph size) in Document.Stats.
func IncludeStats() AnnotateOption {
	return func(o *RequestSpec) {
		o.Stats = true
		o.mark(fieldStats)
	}
}

// WithRequestID labels the request with a caller-chosen trace id,
// reported back in Document.Stats.RequestID (together with IncludeStats;
// the id changes no other output). The HTTP server passes its
// X-Request-ID through here, so a slow or throttled request's work
// counters carry the same id as its log line and response headers.
func WithRequestID(id string) AnnotateOption {
	return func(o *RequestSpec) {
		o.RequestID = id
		o.mark(fieldRequestID)
	}
}

// WithContext supplies interest keyphrases for this request — the
// short-text context prior. The keyphrases' content words are matched
// against each candidate's keyphrase model (the sim-k cover machinery)
// and blended into mention–entity scoring at the context weight. Without
// a context the output is byte-identical to builds that predate the
// option. At most MaxContextKeyphrases per request.
func WithContext(keyphrases ...string) AnnotateOption {
	return func(o *RequestSpec) {
		o.context().Keyphrases = keyphrases
		o.mark(fieldContextKeyphrases)
	}
}

// WithContextEntities supplies interest entity ids for this request:
// candidates in the set score full affinity, candidates linked from it
// half. Combines with WithContext keyphrases (the two signals average).
// At most MaxContextEntities per request.
func WithContextEntities(ids ...EntityID) AnnotateOption {
	return func(o *RequestSpec) {
		o.context().Entities = ids
		o.mark(fieldContextEntities)
	}
}

// WithContextWeight sets the context blend weight in [0, 1] (0 keeps the
// default, disambig.DefaultContextWeight). It only has an effect together
// with WithContext or WithContextEntities.
func WithContextWeight(w float64) AnnotateOption {
	return func(o *RequestSpec) {
		o.context().Weight = w
		o.mark(fieldContextWeight)
	}
}

// WithDomain routes this request through the named per-domain dictionary
// layer (registered with System.RegisterDomain or the server's -domains
// file): recognition, candidate generation and priors all see the domain's
// dictionary composed over the base KB. An unregistered name surfaces as
// an InvalidRequestError; the empty name means the base KB.
func WithDomain(name string) AnnotateOption {
	return func(o *RequestSpec) {
		o.Domain = name
		o.mark(fieldDomain)
	}
}
