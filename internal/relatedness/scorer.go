package relatedness

import (
	"sync"
	"sync/atomic"

	"aida/internal/kb"
)

// scorerShards is the shard count of the Scorer's pair cache and the
// lock-stripe count of its profile intern tables. Sharding keeps
// lock contention negligible when many documents are scored concurrently;
// 64 shards comfortably cover the worker counts of commodity machines.
const scorerShards = 64

// pairKey identifies one memoized relatedness value: a measure kind and an
// ordered entity pair (a < b).
type pairKey struct {
	kind Kind
	a, b kb.EntityID
}

func (k pairKey) shard() uint64 {
	h := uint64(k.a)*0x9e3779b97f4a7c15 ^ uint64(k.b)*0xc2b2ae3d27d4eb4f ^ uint64(k.kind)
	return (h ^ h>>29) % scorerShards
}

// profileShard is one lock stripe of the profile intern table.
type profileShard struct {
	mu sync.RWMutex
	m  map[kb.EntityID]*Profile
	// bytes is the approximate heap footprint of the interned profiles of
	// this shard (guarded by mu, updated on insert).
	bytes int64
}

type pairShard struct {
	mu sync.RWMutex
	m  map[pairKey]float64
	// hits/misses live per shard — and per requested measure kind — so the
	// cache-hit fast path touches no shared cache line; Stats sums them.
	// LSH kinds share KORE's cache rows but keep their own counters, so
	// per-kind traffic stays attributable.
	hits, misses [numKinds]atomic.Int64
}

// Scorer is a long-lived scoring engine bound to one knowledge base. It
// serves all six relatedness kinds, interns per-entity keyphrase profiles
// and memoizes the pairwise scores of the keyphrase kinds (KWCS, KPCS, KORE
// and its LSH variants) across documents; MW is computed on every call (a
// sorted merge of two in-link lists costs less than a probe into a pair map
// of |E|²/2 keys). All methods are safe for concurrent use; every returned
// value is a pure function of the KB, so results are identical whether the
// caches are cold or warm, sequential or hammered from many goroutines.
// Share a single Scorer per KB process-wide.
type Scorer struct {
	kb     kb.Store
	weight Weighter

	// profiles are the lock-striped intern tables: entity e lives at
	// stripe e mod scorerShards.
	profiles [scorerShards]profileShard

	pairs [scorerShards]pairShard
}

// NewScorer creates a scoring engine over the knowledge base (any Store;
// every value it computes is identical whichever implementation serves it).
func NewScorer(k kb.Store) *Scorer {
	s := &Scorer{kb: k, weight: idfWeight(k)}
	for i := range s.profiles {
		s.profiles[i].m = make(map[kb.EntityID]*Profile)
	}
	for i := range s.pairs {
		s.pairs[i].m = make(map[pairKey]float64)
	}
	return s
}

// Profile returns the interned keyphrase profile of a KB entity, building
// it on first use. Duplicate builds under concurrency are possible but
// harmless (profiles are immutable); exactly one copy is retained.
func (s *Scorer) Profile(e kb.EntityID) *Profile {
	sh := &s.profiles[uint64(e)%scorerShards]
	sh.mu.RLock()
	p, ok := sh.m[e]
	sh.mu.RUnlock()
	if ok {
		return p
	}
	built := NewProfile(s.kb.Entity(e).Keyphrases, s.weight)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p, ok := sh.m[e]; ok {
		return p
	}
	sh.m[e] = built
	sh.bytes += built.ApproxBytes()
	return built
}

// Relatedness computes the relatedness of two entities under the given
// kind. The keyphrase kinds are memoized across calls and documents (for
// LSH kinds this is the exact KORE value; pair filtering is LSHFilter's
// job); MW is computed directly and touches neither cache nor counters.
func (s *Scorer) Relatedness(kind Kind, a, b kb.EntityID) float64 {
	if a == b {
		return 1
	}
	if kind == KindMW {
		return MW(s.kb.Entity(a).InLinks, s.kb.Entity(b).InLinks, s.kb.NumEntities())
	}
	if a > b {
		a, b = b, a
	}
	key := pairKey{kind: pairCacheKind(kind), a: a, b: b}
	ctr := counterKind(kind)
	sh := &s.pairs[key.shard()]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		sh.hits[ctr].Add(1)
		return v
	}
	sh.misses[ctr].Add(1)
	v = s.compute(kind, a, b)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
	return v
}

// pairCacheKind collapses kinds that share the same exact value onto one
// cache row: KORE's LSH variants, and out-of-range kinds, which compute
// treats as KORE.
func pairCacheKind(kind Kind) Kind {
	if kind.IsLSH() || !kind.Valid() {
		return KindKORE
	}
	return kind
}

// counterKind maps a requested kind onto its hit/miss counter slot. Valid
// kinds keep their own counters even when they share a cache row;
// out-of-range kinds are accounted as KORE, matching their cache row.
func counterKind(kind Kind) Kind {
	if !kind.Valid() {
		return KindKORE
	}
	return kind
}

// compute evaluates one keyphrase-kind pair without touching the pair cache.
func (s *Scorer) compute(kind Kind, a, b kb.EntityID) float64 {
	switch kind {
	case KindKWCS:
		return KeywordCosine(s.kb.Entity(a).Keyphrases, s.kb.Entity(b).Keyphrases, s.weight)
	case KindKPCS:
		return KeyphraseCosine(s.kb.Entity(a).Keyphrases, s.kb.Entity(b).Keyphrases)
	default: // KORE and its LSH variants
		return KOREProfiles(s.Profile(a), s.Profile(b))
	}
}

// Between computes the relatedness of two entities of store under kind, with
// no cache and no shared state: Relatedness's float operations, so the value
// a Scorer over store returns, bit for bit. a == b is 1; MW takes the
// arguments in the order given; the keyphrase kinds score the pair as
// (min, max); the LSH kinds and out-of-range kinds are exact KORE.
func Between(store kb.Store, kind Kind, a, b kb.EntityID) float64 {
	if a == b {
		return 1
	}
	if kind == KindMW {
		return MW(store.Entity(a).InLinks, store.Entity(b).InLinks, store.NumEntities())
	}
	if a > b {
		a, b = b, a
	}
	pa, pb := store.Entity(a).Keyphrases, store.Entity(b).Keyphrases
	switch kind {
	case KindKWCS:
		return KeywordCosine(pa, pb, idfWeight(store))
	case KindKPCS:
		return KeyphraseCosine(pa, pb)
	default:
		w := idfWeight(store)
		return KOREProfiles(NewProfile(pa, w), NewProfile(pb, w))
	}
}

// idfWeight is the keyword weight of the keyphrase kinds over store: the
// store's IDF, with unknown words floored at 0.1 (minimal evidence).
func idfWeight(store kb.Store) Weighter {
	return func(w string) float64 {
		v := store.WordIDF(w)
		if v <= 0 {
			return 0.1
		}
		return v
	}
}
