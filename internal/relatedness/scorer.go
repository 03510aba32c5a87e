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

// profileEntry is one interned profile plus the bookkeeping the CLOCK
// eviction policy needs: its accounted footprint and a reference bit set on
// every cache hit (atomically, so the read-locked fast path can set it).
type profileEntry struct {
	p     *Profile
	bytes int64
	ref   atomic.Bool
}

type profileShard struct {
	mu sync.RWMutex
	m  map[kb.EntityID]*profileEntry
	// bytes is the approximate heap footprint of the interned profiles of
	// this shard (guarded by mu, updated on insert and eviction).
	bytes int64
	// ring and hand implement the CLOCK sweep: ring holds the shard's
	// interned entity ids in insertion order (always exactly the keys of
	// m), hand is the next sweep position. Guarded by mu.
	ring []kb.EntityID
	hand int
	// evictions counts profiles evicted from this shard (guarded by mu).
	evictions int64
}

// evictLocked sweeps the CLOCK hand until the shard's accounted bytes fit
// the budget, giving referenced entries a second chance. Caller holds mu.
// It returns the evicted entity ids so the caller can drop their dependent
// memoized pairs after releasing the lock. Two full passes bound the walk:
// the first at worst clears every reference bit, the second then evicts.
func (sh *profileShard) evictLocked(budget int64) []kb.EntityID {
	if budget <= 0 || sh.bytes <= budget {
		return nil
	}
	var evicted []kb.EntityID
	for steps := 2 * len(sh.ring); steps > 0 && sh.bytes > budget && len(sh.ring) > 0; steps-- {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		ent := sh.m[e]
		if ent.ref.Load() {
			ent.ref.Store(false)
			sh.hand++
			continue
		}
		delete(sh.m, e)
		sh.bytes -= ent.bytes
		sh.evictions++
		evicted = append(evicted, e)
		sh.ring = append(sh.ring[:sh.hand], sh.ring[sh.hand+1:]...)
	}
	return evicted
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

	// maxProfileBytes is the approximate global budget for interned
	// profiles (0 = unbounded); each profile stripe gets an equal slice.
	// pairsEvicted counts memoized pairs dropped because one of their
	// entities was evicted.
	maxProfileBytes atomic.Int64
	pairsEvicted    atomic.Int64

	pairs [scorerShards]pairShard
}

// NewScorer creates a scoring engine over the knowledge base (any Store;
// every value it computes is identical whichever implementation serves it).
func NewScorer(k kb.Store) *Scorer {
	s := &Scorer{kb: k}
	s.weight = func(w string) float64 {
		v := k.WordIDF(w)
		if v <= 0 {
			return 0.1 // unknown words carry minimal evidence
		}
		return v
	}
	for i := range s.profiles {
		s.profiles[i].m = make(map[kb.EntityID]*profileEntry)
	}
	for i := range s.pairs {
		s.pairs[i].m = make(map[pairKey]float64)
	}
	return s
}

// KB returns the bound knowledge base store.
func (s *Scorer) KB() kb.Store { return s.kb }

// Profile returns the interned keyphrase profile of a KB entity, building
// it on first use. Duplicate builds under concurrency are possible but
// harmless (profiles are immutable); exactly one copy is retained. When a
// MaxProfileBytes budget is set, interning a profile may evict cold ones
// (and their dependent memoized pairs) — never changing any value, only
// what is cached.
func (s *Scorer) Profile(e kb.EntityID) *Profile {
	sh := &s.profiles[uint64(e)%scorerShards]
	sh.mu.RLock()
	if ent, ok := sh.m[e]; ok {
		ent.ref.Store(true)
		sh.mu.RUnlock()
		return ent.p
	}
	sh.mu.RUnlock()
	built := NewProfile(s.kb.Entity(e).Keyphrases, s.weight)
	return s.intern(sh, e, built)
}

// intern inserts a freshly built profile (first writer wins), enforces the
// stripe's eviction budget, and drops the evicted entities' memoized pairs.
func (s *Scorer) intern(sh *profileShard, e kb.EntityID, built *Profile) *Profile {
	sh.mu.Lock()
	if ent, ok := sh.m[e]; ok {
		ent.ref.Store(true)
		sh.mu.Unlock()
		return ent.p
	}
	ent := &profileEntry{p: built, bytes: built.ApproxBytes()}
	ent.ref.Store(true) // a fresh entry gets one CLOCK round of grace
	sh.m[e] = ent
	sh.ring = append(sh.ring, e)
	sh.bytes += ent.bytes
	evicted := sh.evictLocked(s.stripeBudget())
	sh.mu.Unlock()
	s.dropPairsOf(evicted)
	return built
}

// SetMaxProfileBytes bounds the approximate heap footprint of the interned
// profiles (0 restores the default: unbounded). The budget is divided
// evenly across the profile stripes; exceeding it evicts cold profiles
// CLOCK-wise together with their dependent memoized pairs. Shrinking the
// budget evicts immediately. Eviction never changes any computed value —
// evicted state is recomputed on demand — only the work counters.
// Only the KORE family interns profiles, so that is what the budget bounds:
// MW holds no engine state, and KWCS/KPCS pair rows are not bounded by it.
func (s *Scorer) SetMaxProfileBytes(n int64) {
	if n < 0 {
		n = 0
	}
	s.maxProfileBytes.Store(n)
	budget := s.stripeBudget()
	for i := range s.profiles {
		sh := &s.profiles[i]
		sh.mu.Lock()
		evicted := sh.evictLocked(budget)
		sh.mu.Unlock()
		s.dropPairsOf(evicted)
	}
}

// MaxProfileBytes returns the configured profile-memory budget (0 =
// unbounded).
func (s *Scorer) MaxProfileBytes() int64 { return s.maxProfileBytes.Load() }

// stripeBudget is the per-stripe slice of the global profile budget (0 =
// unbounded). A budget smaller than the stripe count still evicts (every
// stripe keeps at most one small profile's worth of slack).
func (s *Scorer) stripeBudget() int64 {
	limit := s.maxProfileBytes.Load()
	if limit <= 0 {
		return 0
	}
	b := limit / int64(len(s.profiles))
	if b < 1 {
		b = 1
	}
	return b
}

// dropPairsOf removes every memoized pair involving an evicted entity, for
// all measure kinds: an evicted entity's cached state leaves the engine
// entirely. Values are pure functions of the KB, so a later request simply
// recomputes them (a miss, never a different answer).
//
// The sweep walks the full pair cache (all shards, one write lock each): a
// deliberate trade-off that keeps the hot path free of any per-entity pair
// index. Eviction is the slow path — with a sane budget it fires rarely,
// and under sustained thrash the sweep itself keeps the pair maps small.
// If a workload ever needs a budget far below its working set, a
// per-entity key index is the upgrade path.
func (s *Scorer) dropPairsOf(evicted []kb.EntityID) {
	if len(evicted) == 0 {
		return
	}
	gone := make(map[kb.EntityID]bool, len(evicted))
	for _, e := range evicted {
		gone[e] = true
	}
	var dropped int64
	for i := range s.pairs {
		sh := &s.pairs[i]
		sh.mu.Lock()
		for key := range sh.m {
			if gone[key.a] || gone[key.b] {
				delete(sh.m, key)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	if dropped > 0 {
		s.pairsEvicted.Add(dropped)
	}
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
