package aida

import (
	"context"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
	"aida/internal/ner"
	"aida/internal/relatedness"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases form the supported public surface.
type (
	// KB is the knowledge base: entity repository, name dictionary, link
	// graph and keyphrase features.
	KB = kb.KB
	// Store is the read interface every knowledge-base implementation
	// satisfies: the single-process *KB, the copy-on-write Overlay and
	// the RemoteStore fleet client. Systems are built over a Store, so
	// the whole pipeline runs unchanged — and byte-identically — against
	// any of them.
	Store = kb.Store
	// ShardedKB is a KB viewed under an N-shard placement: every read is
	// the KB's own, only NumShards differs; build one with ShardKB.
	ShardedKB = kb.ShardedKB
	// RemoteStore is a Store served by a fleet of remote shard hosts,
	// dialed with DialFleet. Annotation over it is byte-identical to a
	// local KB; fetches are batched per shard, hedged past a latency
	// threshold, and failed over across replicas.
	RemoteStore = kb.RemoteStore
	// RemoteOptions tune a DialFleet connection (HTTP client, hedge
	// threshold, retry backoff, expected KB fingerprint).
	RemoteOptions = kb.RemoteOptions
	// RemoteStats is a snapshot of a RemoteStore's fetch counters.
	RemoteStats = kb.RemoteStats
	// RemoteError is the terminal failure of one remote store operation:
	// every replica of a shard failed. AnnotateDoc and friends return it
	// as the request error.
	RemoteError = kb.RemoteError
	// ShardMap is the fleet topology a remote router dials: one entry per
	// shard naming a primary endpoint and optional replicas.
	ShardMap = kb.ShardMap
	// ShardEndpoints lists one shard's hosts, primary first.
	ShardEndpoints = kb.ShardEndpoints
	// StoreHost serves one shard of a Store's read surface over HTTP so
	// remote routers can dial it; build one with NewStoreHost.
	StoreHost = kb.StoreHost
	// Delta is one batch of live knowledge-base additions (new entities,
	// dictionary rows, link edges, IDF extensions) a serving System
	// installs without restart via ApplyDelta. See kb.Delta for the wire
	// form and validation rules.
	Delta = kb.Delta
	// DeltaEntity is one entity added by a Delta, with precomputed
	// feature weights.
	DeltaEntity = kb.NewEntity
	// DeltaRow is one dictionary-row count addition of a Delta.
	DeltaRow = kb.RowAddition
	// DeltaLink is one directed link edge of a Delta.
	DeltaLink = kb.LinkAddition
	// Overlay is a copy-on-write Store: a base Store plus one applied
	// Delta; build one with NewOverlay, or let ApplyDelta do it.
	Overlay = kb.Overlay
	// DomainDictionary is a named per-domain surface→entity dictionary;
	// register one with (*System).RegisterDomain and select it per
	// request with WithDomain.
	DomainDictionary = kb.DomainDictionary
	// DomainRow is one surface→entity count assertion of a
	// DomainDictionary.
	DomainRow = kb.DomainRow
	// KBBuilder assembles a KB.
	KBBuilder = kb.Builder
	// EntityID identifies a KB entity; NoEntity marks out-of-KB.
	EntityID = kb.EntityID
	// Entity is one canonical entity.
	Entity = kb.Entity
	// Keyphrase is a weighted salient phrase describing an entity.
	Keyphrase = kb.Keyphrase
	// Candidate is a disambiguation target with its features.
	Candidate = disambig.Candidate
	// Problem is a self-contained disambiguation instance.
	Problem = disambig.Problem
	// Result is the per-mention disambiguation outcome.
	Result = disambig.Result
	// Output is a full disambiguation result with work statistics.
	Output = disambig.Output
	// Stats are the work counters of one disambiguation run (also
	// returned in Document.Stats when IncludeStats is requested).
	Stats = disambig.Stats
	// Method is a disambiguation algorithm.
	Method = disambig.Method
	// Config parameterizes the AIDA method.
	Config = disambig.Config
	// MentionSpan is a recognized mention with offsets.
	MentionSpan = ner.Mention
	// RelatednessKind selects an entity-relatedness measure.
	RelatednessKind = relatedness.Kind
	// Scorer is the long-lived, concurrency-safe scoring engine bound to a
	// KB generation: it interns entity profiles and memoizes pairwise
	// relatedness across documents for the keyphrase measure kinds (MW is
	// computed on every call). Every System holds one; see (*System).Scorer.
	Scorer = relatedness.Scorer
	// ScorerStats is a snapshot of the engine's caches: interned-profile
	// count and approximate memory, memoized pair count, and per-kind
	// hit/miss counters. See (*Scorer).Stats.
	ScorerStats = relatedness.Stats
	// KindStats are one measure kind's pair-cache counters within a
	// ScorerStats snapshot.
	KindStats = relatedness.KindStats
	// Discoverer performs emerging-entity discovery (Algorithm 3).
	Discoverer = emerge.Discoverer
	// Harvester mines keyphrases around name occurrences.
	Harvester = emerge.Harvester
	// EEModelConfig tunes placeholder-model construction.
	EEModelConfig = emerge.ModelConfig
	// EEPipeline wires harvesting, enrichment, placeholder models and
	// discovery into the end-to-end news workflow of Chapter 5.
	EEPipeline = emerge.Pipeline
	// ChunkDoc is one document of an EEPipeline harvesting chunk.
	ChunkDoc = emerge.ChunkDoc
	// Enricher accumulates harvested keyphrases for existing entities.
	Enricher = emerge.Enricher
)

// NoEntity marks a mention whose entity is not in the knowledge base.
const NoEntity = kb.NoEntity

// Relatedness measure kinds (Chapter 4).
const (
	MW       = relatedness.KindMW
	KWCS     = relatedness.KindKWCS
	KPCS     = relatedness.KindKPCS
	KORE     = relatedness.KindKORE
	KORELSHG = relatedness.KindKORELSHG
	KORELSHF = relatedness.KindKORELSHF
)

// ParseRelatednessKind resolves a measure name as printed by
// RelatednessKind.String ("MW", "KWCS", "KPCS", "KORE", "KORE-LSH-G",
// "KORE-LSH-F"), case-insensitively.
func ParseRelatednessKind(name string) (RelatednessKind, error) {
	return relatedness.ParseKind(name)
}

// NewKBBuilder returns an empty knowledge-base builder.
func NewKBBuilder() *KBBuilder { return kb.NewBuilder() }

// NewOverlay validates a delta against a base store and returns the
// copy-on-write merged view (see kb.NewOverlay). Most callers want
// (*System).ApplyDelta, which also swaps the serving generation and
// invalidates the scoring engine.
func NewOverlay(base Store, d *Delta) (*Overlay, error) { return kb.NewOverlay(base, d) }

// RebuildKB returns a fresh KB with a delta's facts baked in, as if built
// that way from the start — the conformance baseline an Overlay is
// byte-identical to. Compacting a served overlay chain is still open: no
// System API swaps a rebuilt KB in, so every delta a System applies stays
// one more Overlay layer.
func RebuildKB(k *KB, d *Delta) (*KB, error) { return kb.Rebuild(k, d) }

// LoadKB reads a KB snapshot written with (*KB).Save.
func LoadKB(r io.Reader) (*KB, error) { return kb.Load(r) }

// ShardKB returns k viewed under an n-shard placement (entities by id mod
// n, dictionary rows by normalized-surface hash — the layout a fleet of
// shard hosts serves). Every read of the returned store is k's own, so
// annotation over it is byte-identical at any shard count; n must be ≥ 1.
func ShardKB(k *KB, n int) *ShardedKB { return kb.Shard(k, n) }

// LoadShardMap reads and validates a shard-fleet topology file (the
// -shard-map flag of cmd/aidaserver and cmd/aida; see kb.ShardMap for the
// JSON shape).
func LoadShardMap(path string) (ShardMap, error) { return kb.LoadShardMap(path) }

// NewDomainLayer composes a domain dictionary over a base store as a
// copy-on-write layer (see kb.NewDomainLayer). Most callers want
// (*System).RegisterDomain, which also makes the layer selectable with
// WithDomain and keeps it on the serving generation across ApplyDelta.
func NewDomainLayer(base Store, dict DomainDictionary) (*Overlay, error) {
	return kb.NewDomainLayer(base, dict)
}

// LoadDomainDictionaries reads and validates a domain-dictionary file
// (the -domains flag of cmd/aidaserver and cmd/aida; see
// kb.ParseDomainDictionaries for the JSON shape).
func LoadDomainDictionaries(path string) ([]DomainDictionary, error) {
	return kb.LoadDomainDictionaries(path)
}

// DialFleet connects to a remote shard fleet and returns a Store the
// pipeline runs over unchanged: it validates the topology and the fleet's
// agreed-on KB fingerprint, mirrors the dictionary key set and IDF tables
// locally, and fetches entities and candidate rows on demand with
// per-shard batching, hedging and replica failover.
func DialFleet(ctx context.Context, m ShardMap, opts RemoteOptions) (*RemoteStore, error) {
	return kb.DialFleet(ctx, m, opts)
}

// NewStoreHost wraps a store as shard `shard` of a `shards`-wide fleet,
// ready to serve the remote KB read surface (the -shard-host flag of
// cmd/aidaserver mounts it under /v1/store/).
func NewStoreHost(s Store, shard, shards int) (*StoreHost, error) {
	return kb.NewStoreHost(s, shard, shards)
}

// NewAIDAMethod returns the full AIDA method (robustness tests + MW
// coherence), the dissertation's best configuration.
func NewAIDAMethod() Method { return disambig.NewAIDA() }

// NewMethod builds an AIDA variant from an explicit configuration.
func NewMethod(name string, cfg Config) Method { return disambig.NewAIDAVariant(name, cfg) }

// Baselines returns the dissertation's full method suite (Table 3.2).
func Baselines() []Method { return disambig.Methods() }

// methodTable maps every selector MethodByName accepts (lower-case) to
// the constructor of the method it names. It is the single enumerable
// source of truth for the selector set shared by the command-line tools,
// the server's per-request method field, and UseMethodNamed; MethodNames
// lists it.
var methodTable = map[string]func() Method{
	"aida":   NewAIDAMethod,
	"prior":  func() Method { return baselineNamed("prior") },
	"sim":    func() Method { return baselineNamed("sim-k") },
	"cuc":    func() Method { return baselineNamed("Cuc") },
	"kul-ci": func() Method { return baselineNamed("Kul CI") },
	"tagme":  NewTagMe,
	"iw":     NewWikifier,
}

// baselineNamed picks a method out of the dissertation's baseline suite by
// its printed name (nil when absent).
func baselineNamed(name string) Method {
	for _, m := range Baselines() {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// MethodNames returns every selector MethodByName accepts, sorted. The
// empty string (an alias for "aida") is not listed.
func MethodNames() []string {
	return slices.Sorted(maps.Keys(methodTable))
}

// MethodByName resolves the method selectors shared by the command-line
// tools and the server, case-insensitively: "aida" (or empty, the
// default), "prior", "sim", "cuc", "kul-ci", "tagme", "iw". Unknown names
// are an error, never a silent fallback.
func MethodByName(name string) (Method, error) {
	sel := strings.ToLower(name)
	if sel == "" {
		sel = "aida"
	}
	if ctor, ok := methodTable[sel]; ok {
		if m := ctor(); m != nil {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown method %q (want %s)", name, strings.Join(MethodNames(), ", "))
}

// NewTagMe returns the TagMe-style light-weight linker baseline.
func NewTagMe() Method { return disambig.TagMe{} }

// NewWikifier returns the Illinois-Wikifier-style linker baseline.
func NewWikifier() Method { return disambig.Wikifier{} }

// Annotation is one end-to-end annotation: a recognized mention linked to
// an entity (or NoEntity).
type Annotation struct {
	Mention MentionSpan
	Entity  EntityID
	Label   string
	Score   float64
}

// System bundles the full pipeline: recognition, candidate generation and
// disambiguation against one knowledge base store (a single KB, a
// placement view of it or a remote fleet — the annotations are
// byte-identical either way).
//
// A System serves one KB *generation* at a time. ApplyDelta installs a new
// generation (a copy-on-write overlay, a warm-cloned scoring engine and
// the registered domain layers rebuilt over the overlay) with one atomic
// swap; every annotation request reads the generation pointer exactly
// once, so a document is always scored against one consistent (store,
// engine) pair even while an apply races it.
type System struct {
	// KB is the store the System was constructed over — generation 0.
	// After ApplyDelta it is NOT the serving store; use Store() for the
	// live generation. The field stays for construction-time identity
	// (e.g. recognizing a remote fleet client) and compatibility.
	KB     Store
	Method Method
	// MaxCandidates caps candidates per mention (0 = no cap).
	MaxCandidates int
	// ExpandSurfaces enables within-document surface expansion.
	ExpandSurfaces bool

	recognizer ner.Recognizer

	// live is the serving generation; swapped atomically by ApplyDelta
	// and RegisterDomain, loaded once per request. applyMu serializes the
	// writers.
	live    atomic.Pointer[liveKB]
	applyMu sync.Mutex
}

// liveKB is one immutable serving generation: the store, the engine bound
// to it, the update counters as of its installation, and the registered
// domain layers composed over that store.
type liveKB struct {
	store  kb.Store
	engine *relatedness.Scorer
	stats  KBLiveStats
	// domains are the per-domain dictionary layers over this generation's
	// store, by name, each selectable with WithDomain. A layer is rows-only
	// — it adds and touches no entity — so it shares the generation's
	// engine. Empty until RegisterDomain; nil on a layer itself.
	domains map[string]*liveKB
	// dict is the dictionary a layer was built from (zero on a base
	// generation); the next generation rebuilds the layer from it.
	dict DomainDictionary
}

// withDomain returns the layer of dict over this generation.
func (lv *liveKB) withDomain(dict DomainDictionary) (*liveKB, error) {
	layer, err := kb.NewDomainLayer(lv.store, dict)
	if err != nil {
		return nil, err
	}
	return &liveKB{store: layer, engine: lv.engine, stats: lv.stats, dict: dict}, nil
}

// KBLiveStats are a System's live-update counters: the current KB
// generation (0 = as constructed, +1 per applied delta) and what the
// applied deltas added in total.
type KBLiveStats struct {
	Generation    uint64 `json:"generation"`
	DeltaApplies  uint64 `json:"delta_applies"`
	DeltaEntities uint64 `json:"delta_entities"`
	DeltaRows     uint64 `json:"delta_rows"`
}

// LiveKB is a consistent snapshot of a System's serving generation: the
// store and the scoring engine belong together (the engine is bound to
// exactly that store). Callers that need both — e.g. to report the engine's
// counters beside the generation they belong to — must take one snapshot
// rather than calling Store() and Scorer() separately, which could straddle
// an apply.
type LiveKB struct {
	Store  Store
	Engine *Scorer
	Stats  KBLiveStats
}

// Live returns the serving generation snapshot. The returned pair stays
// valid (and internally consistent) even after later ApplyDelta calls;
// it just describes an older generation then.
func (s *System) Live() LiveKB {
	lv := s.live.Load()
	return LiveKB{Store: lv.store, Engine: lv.engine, Stats: lv.stats}
}

// Store returns the serving knowledge-base store: the construction store
// at generation 0, the newest overlay after ApplyDelta calls.
func (s *System) Store() Store { return s.live.Load().store }

// Generation returns the serving KB generation (0 = as constructed,
// incremented by every ApplyDelta).
func (s *System) Generation() uint64 { return s.live.Load().stats.Generation }

// LiveStats returns the live-update counters of the serving generation.
func (s *System) LiveStats() KBLiveStats { return s.live.Load().stats }

// DeltaReceipt reports what one ApplyDelta installed.
type DeltaReceipt struct {
	// Generation is the serving generation after the apply.
	Generation uint64
	// Entities, Rows and Links count the delta's additions; Touched is
	// how many pre-existing entities had their link sets changed (the
	// engine-invalidation set).
	Entities int
	Rows     int
	Links    int
	Touched  int
	// KBEntities is the repository size after the apply.
	KBEntities int
}

// ApplyDelta installs a batch of KB additions into the serving System
// without restart: the delta is validated against the live store, merged
// into a copy-on-write Overlay, the scoring engine is warm-cloned with
// every value the update invalidates dropped (profiles and memoized pairs
// of touched entities — see relatedness.CloneFor; MW depends on the entity
// count but is never memoized), every registered domain layer is rebuilt
// over the overlay, and the new generation — base and layers — is swapped
// in atomically. In-flight documents finish on the generation they started
// with; the next request sees the new one — an added entity is linkable by
// name immediately, inside a domain or not.
//
// The overlay's fingerprint differs from the old generation's whenever the
// delta changes logical content, so derived state bound to the old
// generation (engine snapshots, fleet fingerprint checks) fails safely
// rather than mixing generations.
//
// Appliers are serialized; a delta validated against a generation that is
// no longer serving (its BaseEntities mismatches), or over which a
// registered domain layer cannot be rebuilt, is rejected with an error and
// changes nothing.
func (s *System) ApplyDelta(d *kb.Delta) (DeltaReceipt, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cur := s.live.Load()
	ov, err := kb.NewOverlay(cur.store, d)
	if err != nil {
		return DeltaReceipt{}, err
	}
	st := cur.stats
	st.Generation++
	st.DeltaApplies++
	st.DeltaEntities += uint64(ov.Added())
	st.DeltaRows += uint64(len(d.Rows))
	next := &liveKB{
		store:   ov,
		engine:  cur.engine.CloneFor(ov, ov.Touched(), false),
		stats:   st,
		domains: make(map[string]*liveKB, len(cur.domains)),
	}
	for name, layer := range cur.domains {
		if next.domains[name], err = next.withDomain(layer.dict); err != nil {
			return DeltaReceipt{}, err
		}
	}
	s.live.Store(next)
	return DeltaReceipt{
		Generation: st.Generation,
		Entities:   ov.Added(),
		Rows:       len(d.Rows),
		Links:      len(d.Links),
		Touched:    len(ov.Touched()),
		KBEntities: ov.NumEntities(),
	}, nil
}

// RegisterDomain composes a per-domain dictionary layer over the serving
// KB generation and makes it selectable by name with WithDomain (and the
// HTTP "domain" field). The layer is a copy-on-write view: dictionary rows
// re-weight the domain's senses of their surfaces while every other read
// passes through to the base, and the scoring engine is shared with the
// base generation (a rows-only layer invalidates nothing). Registering a
// name again replaces the layer; requests already routed keep the layer
// they resolved.
//
// A registered domain belongs to the serving generation: every later
// ApplyDelta rebuilds its layer over the new store, so a domain request
// sees the same entities a base request does.
func (s *System) RegisterDomain(dict DomainDictionary) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cur := s.live.Load()
	layer, err := cur.withDomain(dict)
	if err != nil {
		return err
	}
	next := *cur
	next.domains = maps.Clone(cur.domains)
	next.domains[dict.Name] = layer
	s.live.Store(&next)
	return nil
}

// DomainNames lists the registered domain names, sorted.
func (s *System) DomainNames() []string {
	return slices.Sorted(maps.Keys(s.live.Load().domains))
}

// domainLive resolves a WithDomain selector to its layer over the serving
// generation.
func (s *System) domainLive(name string) (*liveKB, error) {
	domains := s.live.Load().domains
	if lv := domains[name]; lv != nil {
		return lv, nil
	}
	names := slices.Sorted(maps.Keys(domains))
	if len(names) == 0 {
		return nil, invalidRequestf("unknown domain %q (no domains registered)", name)
	}
	return nil, invalidRequestf("unknown domain %q (available: %s)", name, strings.Join(names, ", "))
}

// Option configures a System.
type Option func(*System)

// WithMethod selects the disambiguation method (default: full AIDA).
func WithMethod(m Method) Option { return func(s *System) { s.Method = m } }

// WithMaxCandidates caps the candidates materialized per mention.
func WithMaxCandidates(n int) Option { return func(s *System) { s.MaxCandidates = n } }

// WithSurfaceExpansion enables the within-document coreference heuristic:
// single-word mentions are expanded to a longer mention of the same
// document containing them ("Carter" → "Rubin Carter").
func WithSurfaceExpansion() Option { return func(s *System) { s.ExpandSurfaces = true } }

// New creates a System over the knowledge base store.
func New(k Store, opts ...Option) *System {
	s := &System{KB: k, Method: disambig.NewAIDA()}
	s.recognizer.Lexicon = k
	s.live.Store(&liveKB{store: k, engine: relatedness.NewScorer(k), domains: map[string]*liveKB{}})
	for _, o := range opts {
		o(s)
	}
	return s
}

// Scorer returns the serving generation's scoring engine. It accumulates
// interned profiles and memoized pair scores across every document the
// system annotates under a keyphrase coherence measure (none under the
// default method's MW); all its methods are safe for concurrent use. After
// ApplyDelta this returns the new generation's engine — callers that need
// the engine together with its store should take one Live() snapshot.
func (s *System) Scorer() *Scorer { return s.live.Load().engine }

// Recognize runs named entity recognition only, over the serving
// generation's dictionary.
func (s *System) Recognize(text string) []MentionSpan {
	rec := s.recognizer
	rec.Lexicon = s.live.Load().store
	return rec.Recognize(text)
}

// NewProblem builds a disambiguation problem for pre-recognized mention
// surfaces against the serving KB generation. The problem shares that
// generation's scoring engine, so keyphrase-measure coherence values for
// KB-entity pairs are memoized across documents.
func (s *System) NewProblem(text string, surfaces []string) *Problem {
	lv := s.live.Load()
	if s.ExpandSurfaces {
		surfaces = disambig.ExpandSurfaces(lv.store, surfaces)
	}
	p := disambig.NewProblem(lv.store, text, surfaces, s.MaxCandidates)
	p.Scorer = lv.engine
	return p
}

// Disambiguate links pre-recognized mention surfaces in the text.
func (s *System) Disambiguate(text string, surfaces []string) *Output {
	return s.Method.Disambiguate(s.NewProblem(text, surfaces))
}

// Relatedness computes the semantic relatedness of two KB entities under
// the given measure: the keyphrase measures memoized by the system's shared
// engine (profiles are built once per KB generation, not per call), MW
// computed from the two in-link lists on every call.
func (s *System) Relatedness(kind RelatednessKind, a, b EntityID) float64 {
	return s.Scorer().Relatedness(kind, a, b)
}

// Confidence estimates per-mention disambiguation confidence with the CONF
// assessor of Chapter 5 (normalized weighted degree + entity perturbation).
func (s *System) Confidence(p *Problem, out *Output, iterations int, seed int64) []float64 {
	return emerge.CONF(s.Method, p, out, emerge.PerturbConfig{Iterations: iterations, Seed: seed})
}

// DiscoverEmerging links mentions while explicitly modeling out-of-KB
// entities: keyphrases for each surface are harvested from the corpus
// documents, placeholder models are built by model difference, and
// Algorithm 3 decides between KB entities and emerging ones. For the full
// workflow (enrichment, windowed chunks) use an EEPipeline directly.
func (s *System) DiscoverEmerging(text string, surfaces []string, corpus []string) *emerge.Discovery {
	lv := s.live.Load()
	pl := &emerge.Pipeline{
		KB:            lv.store,
		Method:        s.Method,
		MaxCandidates: s.MaxCandidates,
		Parallelism:   runtime.GOMAXPROCS(0),
		Scorer:        lv.engine,
	}
	chunk := make([]emerge.ChunkDoc, len(corpus))
	for i, c := range corpus {
		chunk[i] = emerge.ChunkDoc{Text: c, Surfaces: surfaces}
	}
	return pl.Run(text, surfaces, chunk, nil)
}
