package relatedness

import (
	"aida/internal/kb"
)

// CloneFor derives the scoring engine of a new KB generation from this
// one: a fresh Scorer bound to store, warm-started with every cached value
// a live update cannot have invalidated, so aida.System.ApplyDelta keeps
// the engine's accumulated heat instead of paying a cold start per delta.
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
//
// Profiles and pair rows of touched entities are dropped, and hit/miss
// counters start at zero: a generation swap reads as a restart in the
// engine's stats. The source engine stays valid for in-flight documents of
// the old generation; CloneFor only read-locks it.
//
// The third parameter is dead: it said the entity count changed, which
// emptied the MW row when MW was memoized, and no cached value depends on
// |E| now. It stays because the frozen benchmark calls this signature
// (ROADMAP item 1 drops it with the next benchmark re-cut).
func (s *Scorer) CloneFor(store kb.Store, touched []kb.EntityID, _ bool) *Scorer {
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
		nsh.bytes = sh.bytes
		for e, p := range sh.m {
			if gone[e] {
				nsh.bytes -= p.ApproxBytes()
				continue
			}
			nsh.m[e] = p
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
			// pairKey.shard is a pure function of the key, so the entry
			// lands in the same shard index of the new engine.
			ns.pairs[i].m[key] = v
		}
		sh.mu.RUnlock()
	}
	return ns
}
