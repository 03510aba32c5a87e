package kb

// Store is the read interface of the knowledge base: everything the
// annotation pipeline (recognition, candidate materialization, scoring,
// harvesting, serving) needs from the KB substrate. Three implementations
// satisfy it: the single-process *KB (also behind the ShardedKB placement
// view, which changes nothing but NumShards), the copy-on-write Overlay
// (a live-update generation, or a domain dictionary layer) and the
// RemoteStore fleet client. Every implementation must return
// byte-identical results for the same underlying repository — the
// golden-corpus conformance suite in internal/kbtest pins this.
//
// All methods must be safe for concurrent use. Every implementation is
// immutable after construction; live KB updates never mutate a Store in
// place. Instead, each update produces a NEW Store (an Overlay over the
// old one, or a Rebuild) and the serving layer swaps the generations
// atomically (see aida.System.ApplyDelta). Consequences of that contract:
//
//   - Slices returned by Names(), Candidates() and Entity() stay valid and
//     constant forever — but they describe the generation they were read
//     from. State derived from a Store at construction time (a StoreHost's
//     name mirror, a RemoteStore's dialed dictionary, a relatedness engine's
//     interned profiles and memoized pairs) is bound to that generation and
//     must be rebuilt — or swapped alongside — when a new generation is
//     installed; it must never be cached across an apply and replayed
//     against the new store.
//   - Fingerprint() identifies the generation's content: applying a delta
//     that changes logical content yields a different fingerprint, so
//     generation mismatches (a stale engine snapshot, a fleet host serving
//     older content) fail closed instead of silently mixing generations.
type Store interface {
	// NumEntities returns |E|. Entity ids are dense in [0, NumEntities()),
	// so iterating ids covers the whole repository on any implementation.
	NumEntities() int
	// Entity returns the entity with the given id. It panics on ids
	// outside the repository; NoEntity is not a valid argument.
	Entity(id EntityID) *Entity
	// EntityByName looks up an entity by its canonical name.
	EntityByName(name string) (EntityID, bool)
	// HasName implements ner.Lexicon over the normalized dictionary keys.
	HasName(normalized string) bool
	// Candidates returns the candidate entities for a surface form, sorted
	// by descending prior (ties broken by ascending id). A nil slice means
	// the dictionary has no entry. The returned slice is shared across
	// calls and must not be modified by the caller.
	Candidates(surface string) []Candidate
	// Names returns all dictionary keys (normalized names), sorted.
	Names() []string
	// PhraseIDF returns the global IDF of a keyphrase (Eq. 3.5).
	PhraseIDF(phrase string) float64
	// WordIDF returns the global IDF of a keyword.
	WordIDF(word string) float64
	// NumShards reports the shard placement this store is laid out by (1
	// for a plain *KB). Entity e belongs to shard
	// EntityShard(e, NumShards()).
	NumShards() int
	// Vocabulary returns the generation's derived scoring state: keyword
	// ids and the entities' keyphrases compiled against them. It is a
	// method of Store, not an optional extension, so that a wrapper
	// embedding a Store serves the same path the wrapped store does.
	Vocabulary() *Vocab
	// Fingerprint returns a deterministic hash of the repository content.
	// It is shard-layout-independent: the KB, any placement view of it and
	// a fleet serving it return the same value, so state derived from the
	// KB (engine snapshots) can be validated against any Store serving
	// that content.
	Fingerprint() uint64
}

// BulkCandidateStore is an optional Store extension for stores where a
// candidate lookup may cost a round trip (RemoteStore). CandidatesBulk
// materializes the candidate lists of many surfaces at once — batched per
// shard instead of one fetch per surface — and returns them positionally
// aligned with the input. Each list is byte-identical to what
// Candidates(surfaces[i]) returns (nil for out-of-dictionary surfaces),
// and the same sharing rules apply: the slices must not be modified.
type BulkCandidateStore interface {
	Store
	CandidatesBulk(surfaces []string) [][]Candidate
}

// Compile-time conformance of the in-process implementations (Overlay and
// RemoteStore declare theirs next to their definitions).
var (
	_ Store = (*KB)(nil)
	_ Store = (*ShardedKB)(nil)
)

// NumShards implements Store: a plain KB is one shard.
func (k *KB) NumShards() int { return 1 }

// candidatesFrom materializes Candidate structs from raw dictionary rows,
// recomputing priors over the full entry set and sorting by descending
// prior with ties broken by ascending id. The KB, the Overlay and the
// remote router all build their results through this one function, which
// is what makes their outputs byte-identical (same summation order, same
// float divisions, same comparator). It runs once per dictionary key at
// construction time (see precomputeCandidates), never on the lookup path.
func candidatesFrom(entries []nameEntry) []Candidate {
	if len(entries) == 0 {
		return nil
	}
	total := 0
	for _, e := range entries {
		total += e.Count
	}
	out := make([]Candidate, len(entries))
	for i, e := range entries {
		prior := 0.0
		if total > 0 {
			prior = float64(e.Count) / float64(total)
		}
		out[i] = Candidate{Entity: e.Entity, Prior: prior, Count: e.Count}
	}
	sortCandidates(out)
	return out
}

// precomputeCandidates materializes the candidate slice of every
// dictionary key up front. Candidates() then returns the shared immutable
// slice, so a surface lookup during annotation allocates nothing.
func precomputeCandidates(dict map[string][]nameEntry) map[string][]Candidate {
	out := make(map[string][]Candidate, len(dict))
	for key, entries := range dict {
		out[key] = candidatesFrom(entries)
	}
	return out
}
