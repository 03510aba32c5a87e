package relatedness

import (
	"testing"

	"aida/internal/kb"
)

// TestCloneForDropsTouchedKeepsTheRest pins the generation-clone contract:
// profiles and memoized pairs of touched entities are dropped, everything
// else carries over (so untouched pairs are hits in the clone), the byte
// account equals a fresh intern of the surviving profiles, and every value
// matches the source engine's.
func TestCloneForDropsTouchedKeepsTheRest(t *testing.T) {
	k, _, _ := buildClusterKB()
	src := NewScorer(k)
	ents := warmScorer(src)
	touched := ents[0]
	clone := src.CloneFor(k, []kb.EntityID{touched}, false)

	fresh := NewScorer(k)
	for _, e := range ents[1:] {
		fresh.Profile(e)
	}
	ss, cs, fs := src.Stats(), clone.Stats(), fresh.Stats()
	if cs.Profiles != ss.Profiles-1 || cs.ProfileBytes != fs.ProfileBytes {
		t.Fatalf("clone profiles=%d bytes=%d, want %d and %d", cs.Profiles, cs.ProfileBytes, ss.Profiles-1, fs.ProfileBytes)
	}
	if cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("clone should start with zero counters, got hits=%d misses=%d", cs.Hits, cs.Misses)
	}
	// Pairs among untouched entities are served from the carried cache.
	for _, kind := range allKinds {
		for i := 1; i < len(ents); i++ {
			for j := i + 1; j < len(ents); j++ {
				if got, want := clone.Relatedness(kind, ents[i], ents[j]), src.Relatedness(kind, ents[i], ents[j]); got != want {
					t.Fatalf("%v(%d,%d) = %v in clone, source %v", kind, ents[i], ents[j], got, want)
				}
			}
		}
	}
	if st := clone.Stats(); st.Misses != 0 {
		t.Fatalf("untouched pairs recomputed in the clone: misses=%d", st.Misses)
	}
	// Pairs with the touched entity were dropped and recompute to the same value.
	before := clone.Stats().Misses
	for _, e := range ents[1:] {
		if got, want := clone.Relatedness(KindKORE, touched, e), src.Relatedness(KindKORE, touched, e); got != want {
			t.Fatalf("KORE(%d,%d) = %v in clone, source %v", touched, e, got, want)
		}
	}
	if got := clone.Stats().Misses - before; got != int64(len(ents)-1) {
		t.Fatalf("touched pairs: %d misses, want %d", got, len(ents)-1)
	}
}
