package relatedness

import (
	"aida/internal/kb"
)

// CloneFor derives the scoring engine of a new KB generation from this
// one: a fresh Scorer bound to store, warm-started with every cached value
// a live update cannot have invalidated. It is the engine half of
// aida.System.ApplyDelta — the store swap installs a new generation, and
// CloneFor keeps the engine's accumulated heat instead of paying a full
// cold start per delta.
//
// What survives, and why it is safe:
//
//   - Interned profiles of entities NOT in touched: a profile is a pure
//     function of the entity's keyphrases and the global word-IDF weighter.
//     A delta leaves untouched entities' keyphrases shared with the base
//     and only extends the IDF tables where the base had no weight, so
//     these profiles are bit-identical under the new store.
//   - Memoized pairs where neither endpoint is touched: KWCS, KPCS and
//     KORE values depend only on the two entities' keyphrase features.
//   - MW pairs additionally depend on |E| (the Milne–Witten normalizer),
//     so when the generation changed the entity count every MW value is
//     stale and the whole MW cache row is dropped, touched or not.
//
// What is dropped: profiles and all pair rows of touched entities (their
// link sets changed — the same dependent-pair sweep the eviction machinery
// performs, see dropPairsOf) and the MW row under entity-count change.
// Cache hit/miss/eviction counters start at zero on the clone — a
// generation swap reads as a restart in the engine's observability.
//
// The source engine stays valid and serves in-flight documents of the old
// generation; CloneFor only read-locks it.
func (s *Scorer) CloneFor(store kb.Store, touched []kb.EntityID, entityCountChanged bool) *Scorer {
	ns := NewScorer(store)
	gone := make(map[kb.EntityID]bool, len(touched))
	for _, e := range touched {
		gone[e] = true
	}
	// Carry surviving profiles over, stripe by stripe. The *Profile values
	// are shared — profiles are immutable.
	for i := range s.profiles {
		sh := &s.profiles[i]
		nsh := &ns.profiles[i]
		sh.mu.RLock()
		for e, ent := range sh.m {
			if gone[e] {
				continue
			}
			ne := &profileEntry{p: ent.p, bytes: ent.bytes}
			ne.ref.Store(true) // one CLOCK round of grace, like a fresh intern
			nsh.m[e] = ne
			nsh.ring = append(nsh.ring, e)
			nsh.bytes += ne.bytes
		}
		sh.mu.RUnlock()
	}
	for i := range s.pairs {
		sh := &s.pairs[i]
		sh.mu.RLock()
		for key, v := range sh.m {
			if gone[key.a] || gone[key.b] {
				continue
			}
			if entityCountChanged && key.kind == KindMW {
				continue
			}
			// pairKey.shard is a pure function of the key, so the entry
			// lands in the same shard index of the new engine.
			ns.pairs[i].m[key] = v
		}
		sh.mu.RUnlock()
	}
	// Carry the budget over.
	ns.SetMaxProfileBytes(s.maxProfileBytes.Load())
	return ns
}
