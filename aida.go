package aida

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"aida/internal/disambig"
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
	// satisfies: the single-process *KB, a sharded placement view of it,
	// the copy-on-write overlays ApplyDelta and RegisterDomain install,
	// and the fleet client of remote shard hosts. Systems are built over
	// a Store, so the whole pipeline runs unchanged — and byte-identically
	// — against any of them.
	Store = kb.Store
	// RemoteError is the terminal failure of one remote store operation:
	// every replica of a shard failed. AnnotateDoc and friends return it
	// as the request error.
	RemoteError = kb.RemoteError
	// Delta is one batch of live knowledge-base additions (new entities,
	// dictionary rows, link edges, IDF extensions) a serving System
	// installs without restart via ApplyDelta. See kb.Delta for the wire
	// form and validation rules.
	Delta = kb.Delta
	// DomainDictionary is a named per-domain surface→entity dictionary;
	// register one with (*System).RegisterDomain and select it per
	// request with WithDomain.
	DomainDictionary = kb.DomainDictionary
	// KBBuilder assembles a KB.
	KBBuilder = kb.Builder
	// EntityID identifies a KB entity; NoEntity marks out-of-KB.
	EntityID = kb.EntityID
	// Stats are the work counters of one disambiguation run, returned in
	// Document.Stats when IncludeStats is requested.
	Stats = disambig.Stats
	// Method is a disambiguation algorithm.
	Method = disambig.Method
	// MentionSpan is a recognized mention with offsets.
	MentionSpan = ner.Mention
	// RelatednessKind selects an entity-relatedness measure.
	RelatednessKind = relatedness.Kind
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

// LoadKB reads a KB snapshot written with (*KB).Save.
func LoadKB(r io.Reader) (*KB, error) { return kb.Load(r) }

// ShardKB returns k viewed under an n-shard placement (entities by id mod
// n, dictionary rows by normalized-surface hash — the layout a fleet of
// shard hosts serves). Every read of the returned store is k's own, so
// annotation over it is byte-identical at any shard count; n must be ≥ 1.
func ShardKB(k *KB, n int) Store { return kb.Shard(k, n) }

// methodTable maps every selector MethodByName accepts (lower-case) to
// the constructor of the method it names. It is the single enumerable
// source of truth for the selector set shared by the command-line tools,
// the server's per-request method field, and UseMethodNamed; MethodNames
// lists it.
var methodTable = map[string]func() Method{
	"aida":   func() Method { return disambig.NewAIDA() },
	"prior":  func() Method { return baselineNamed("prior") },
	"sim":    func() Method { return baselineNamed("sim-k") },
	"cuc":    func() Method { return baselineNamed("Cuc") },
	"kul-ci": func() Method { return baselineNamed("Kul CI") },
	"tagme":  func() Method { return disambig.TagMe{} },
	"iw":     func() Method { return disambig.Wikifier{} },
}

// baselineNamed picks a method out of the dissertation's baseline suite
// (Table 3.2) by its printed name (nil when absent).
func baselineNamed(name string) Method {
	for _, m := range disambig.Methods() {
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

// Annotation is one end-to-end annotation: a recognized (or given) mention
// linked to an entity (or NoEntity).
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
// generation (a copy-on-write overlay and the registered domain layers
// rebuilt over it) with one atomic swap; every annotation request reads the
// generation pointer exactly once, so a document is always scored against
// one consistent store even while an apply races it. A System caches no
// scoring state across documents: every value it computes is a function of
// the document and the store.
type System struct {
	// KB is the store the System was constructed over — generation 0.
	// After ApplyDelta it is NOT the serving store; use Store() for the
	// live generation. The field stays for construction-time identity
	// (e.g. recognizing a remote fleet client) and compatibility.
	KB     Store
	Method Method
	// MaxCandidates caps candidates per mention (0 = no cap). A request's
	// max_candidates may lower the cap but never raise it.
	MaxCandidates int

	recognizer ner.Recognizer

	// live is the serving generation; swapped atomically by ApplyDelta
	// and RegisterDomain, loaded once per request. applyMu serializes the
	// writers.
	live    atomic.Pointer[liveKB]
	applyMu sync.Mutex
}

// liveKB is one immutable serving generation: the store, the update
// counters as of its installation, and the registered domain layers
// composed over that store.
type liveKB struct {
	store kb.Store
	stats KBLiveStats
	// domains are the per-domain dictionary layers over this generation's
	// store, by name, each selectable with WithDomain. Empty until
	// RegisterDomain; nil on a layer itself.
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
	return &liveKB{store: layer, stats: lv.stats, dict: dict}, nil
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
// store and the counters that describe it. Callers that report both must
// take one snapshot rather than reading them separately, which could
// straddle an apply.
type LiveKB struct {
	Store Store
	Stats KBLiveStats
}

// Live returns the serving generation snapshot. It stays valid (and
// internally consistent) even after later ApplyDelta calls; it just
// describes an older generation then.
func (s *System) Live() LiveKB {
	lv := s.live.Load()
	return LiveKB{Store: lv.store, Stats: lv.stats}
}

// Store returns the serving knowledge-base store: the construction store
// at generation 0, the newest overlay after ApplyDelta calls.
func (s *System) Store() Store { return s.live.Load().store }

// Generation returns the serving KB generation (0 = as constructed,
// incremented by every ApplyDelta).
func (s *System) Generation() uint64 { return s.live.Load().stats.Generation }

// DeltaReceipt reports what one ApplyDelta installed.
type DeltaReceipt struct {
	// Generation is the serving generation after the apply.
	Generation uint64
	// Entities, Rows and Links count the delta's additions; Touched is
	// how many pre-existing entities had their link sets changed.
	Entities int
	Rows     int
	Links    int
	Touched  int
	// KBEntities is the repository size after the apply.
	KBEntities int
}

// ApplyDelta installs a batch of KB additions into the serving System
// without restart: the delta is validated against the live store, merged
// into a copy-on-write overlay, every registered domain layer is rebuilt
// over the overlay, and the new generation — base and layers — is swapped
// in atomically. In-flight documents finish on the generation they started
// with; the next request sees the new one — an added entity is linkable by
// name immediately, inside a domain or not.
//
// The overlay's fingerprint differs from the old generation's whenever the
// delta changes logical content, so derived state bound to the old
// generation (fleet fingerprint checks) fails safely rather than mixing
// generations.
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
// passes through to the base. Registering a name again replaces the layer;
// requests already routed keep the layer they resolved.
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

// WithMaxCandidates caps the candidates materialized per mention: a ceiling
// that a request's max_candidates may lower but never raise.
func WithMaxCandidates(n int) Option { return func(s *System) { s.MaxCandidates = n } }

// New creates a System over the knowledge base store.
func New(k Store, opts ...Option) *System {
	s := &System{KB: k, Method: disambig.NewAIDA()}
	s.recognizer.Lexicon = k
	s.live.Store(&liveKB{store: k, domains: map[string]*liveKB{}})
	for _, o := range opts {
		o(s)
	}
	return s
}

// Relatedness computes the semantic relatedness of two entities of the
// serving KB generation under the given measure, from their in-link lists
// (MW) or keyphrases on every call. A remote store whose shard failed
// returns its *RemoteError.
func (s *System) Relatedness(kind RelatednessKind, a, b EntityID) (v float64, err error) {
	defer recoverRemote(&err)
	return relatedness.Between(s.Store(), kind, a, b), nil
}

// recoverRemote, deferred, turns the panic of a remote-backed store into
// *err. kb.RemoteStore has no error returns on the Store read surface: a
// shard whose every replica failed panics with a *kb.RemoteError, and the
// System's entry points convert it here into an error for their caller (the
// HTTP server answers it with a 500, not a crashed connection). Any other
// panic is a real bug and propagates.
func recoverRemote(err *error) {
	if r := recover(); r != nil {
		re, ok := r.(*kb.RemoteError)
		if !ok {
			panic(r)
		}
		*err = re
	}
}
