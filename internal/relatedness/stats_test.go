package relatedness

import (
	"testing"

	"aida/internal/kb"
)

// TestScorerStatsPerKind drives known traffic per kind and checks the
// per-kind hit/miss attribution, profile accounting and totals. MW is
// computed on every call and never memoized, so its entry stays zero.
func TestScorerStatsPerKind(t *testing.T) {
	k, music, physics := buildClusterKB()
	ents := append(append([]kb.EntityID{}, music...), physics...)
	s := NewScorer(k)

	if st := s.Stats(); st.Profiles != 0 || st.ProfileBytes != 0 || st.Pairs != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("fresh engine should report zero stats, got %+v", st)
	}

	a, b := ents[0], ents[1]
	s.Relatedness(KindMW, a, b)   // computed: no row, no counter
	s.Relatedness(KindMW, a, b)   // computed again
	s.Relatedness(KindKWCS, a, b) // miss
	s.Relatedness(KindKWCS, a, b) // hit
	s.Relatedness(KindKWCS, a, b) // hit
	s.Relatedness(KindKORE, a, b) // miss (own cache row)

	st := s.Stats()
	byKind := make(map[Kind]KindStats, len(st.ByKind))
	for _, ks := range st.ByKind {
		byKind[ks.Kind] = ks
	}
	if got := byKind[KindMW]; got.Name != "MW" || got.Hits != 0 || got.Misses != 0 || got.HitRate() != 0 {
		t.Errorf("MW entry = %+v, want a zero entry named MW", got)
	}
	if got := byKind[KindKWCS]; got.Hits != 2 || got.Misses != 1 {
		t.Errorf("KWCS counters = %d hits/%d misses, want 2/1", got.Hits, got.Misses)
	}
	if got := byKind[KindKORE]; got.Hits != 0 || got.Misses != 1 {
		t.Errorf("KORE counters = %d hits/%d misses, want 0/1", got.Hits, got.Misses)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("totals = %d hits/%d misses, want 2/2", st.Hits, st.Misses)
	}
	if st.Pairs != 2 {
		t.Errorf("Pairs = %d, want 2 (one KWCS row, one KORE row)", st.Pairs)
	}
	if got, want := byKind[KindKWCS].HitRate(), 2.0/3.0; got != want {
		t.Errorf("KWCS hit rate = %v, want %v", got, want)
	}

	// KORE computed profiles for a and b; their footprint must be counted.
	if st.Profiles != 2 {
		t.Errorf("Profiles = %d, want 2", st.Profiles)
	}
	wantBytes := s.Profile(a).ApproxBytes() + s.Profile(b).ApproxBytes()
	if st.ProfileBytes != wantBytes {
		t.Errorf("ProfileBytes = %d, want %d", st.ProfileBytes, wantBytes)
	}
}

// TestScorerStatsLSHTrafficAttributed checks that LSH kinds share KORE's
// cache rows (second kind hits the first kind's value) while traffic stays
// attributed to the requested kind.
func TestScorerStatsLSHTrafficAttributed(t *testing.T) {
	k, music, _ := buildClusterKB()
	s := NewScorer(k)
	a, b := music[0], music[1]
	s.Relatedness(KindKORE, a, b)     // miss, fills the shared row
	s.Relatedness(KindKORELSHG, a, b) // hit on the shared row
	st := s.Stats()
	for _, ks := range st.ByKind {
		switch ks.Kind {
		case KindKORE:
			if ks.Hits != 0 || ks.Misses != 1 {
				t.Errorf("KORE = %d/%d, want 0 hits/1 miss", ks.Hits, ks.Misses)
			}
		case KindKORELSHG:
			if ks.Hits != 1 || ks.Misses != 0 {
				t.Errorf("KORE-LSH-G = %d/%d, want 1 hit/0 misses", ks.Hits, ks.Misses)
			}
		}
	}
	if st.Pairs != 1 {
		t.Errorf("Pairs = %d, want 1 shared row", st.Pairs)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Stats totals (%d,%d) disagree with the per-kind counters (1,1)", st.Hits, st.Misses)
	}
}

func TestParseKind(t *testing.T) {
	for k := Kind(0); int(k) < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := ParseKind("kore-lsh-f"); err != nil || got != KindKORELSHF {
		t.Errorf("ParseKind is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind should reject unknown names")
	}
	if !KindKORE.Valid() || Kind(-1).Valid() || Kind(numKinds).Valid() {
		t.Error("Kind.Valid bounds are wrong")
	}
}

func TestProfileApproxBytesGrows(t *testing.T) {
	small := NewProfile([]kb.Keyphrase{{Phrase: "rock", Words: []string{"rock"}, MI: 1}}, unitWeighter)
	big := NewProfile([]kb.Keyphrase{
		{Phrase: "english rock guitarist", Words: []string{"english", "rock", "guitarist"}, MI: 1},
		{Phrase: "unusual chords", Words: []string{"unusual", "chords"}, MI: 1},
	}, unitWeighter)
	if small.ApproxBytes() <= 0 {
		t.Fatal("ApproxBytes must be positive for a non-empty profile")
	}
	if big.ApproxBytes() <= small.ApproxBytes() {
		t.Errorf("bigger profile should report more bytes: %d vs %d", big.ApproxBytes(), small.ApproxBytes())
	}
}
