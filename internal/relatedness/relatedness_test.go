package relatedness

import (
	"math"
	"testing"
	"testing/quick"

	"aida/internal/kb"
)

func kp(phrase string, mi float64) kb.Keyphrase {
	return kb.Keyphrase{Phrase: phrase, Words: kb.PhraseWords(phrase), MI: mi}
}

func TestMWBasics(t *testing.T) {
	n := 1000
	a := []kb.EntityID{1, 2, 3, 4, 5}
	b := []kb.EntityID{3, 4, 5, 6, 7}
	c := []kb.EntityID{100, 200}
	if got := MW(a, a, n); !almostEq(got, 1) {
		t.Errorf("self relatedness = %v, want 1", got)
	}
	if got := MW(a, c, n); got != 0 {
		t.Errorf("disjoint in-links must be 0, got %v", got)
	}
	ab := MW(a, b, n)
	if ab <= 0 || ab >= 1 {
		t.Errorf("partial overlap out of (0,1): %v", ab)
	}
}

func TestMWMoreOverlapMoreRelated(t *testing.T) {
	n := 1000
	a := []kb.EntityID{1, 2, 3, 4, 5, 6, 7, 8}
	high := []kb.EntityID{1, 2, 3, 4, 5, 6, 9, 10}
	low := []kb.EntityID{1, 2, 11, 12, 13, 14, 15, 16}
	if MW(a, high, n) <= MW(a, low, n) {
		t.Error("more in-link overlap must mean higher MW")
	}
}

func TestMWSymmetric(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := idsOf(xs)
		b := idsOf(ys)
		return almostEq(MW(a, b, 500), MW(b, a, 500))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func idsOf(xs []uint8) []kb.EntityID {
	seen := map[kb.EntityID]bool{}
	var out []kb.EntityID
	for _, x := range xs {
		id := kb.EntityID(x)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	// sort
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// unitWeighter weights every keyword 1.
func unitWeighter(string) float64 { return 1 }

func TestKOREIdenticalSets(t *testing.T) {
	set := []kb.Keyphrase{kp("English rock guitarist", 0.9), kp("hard rock", 0.5)}
	got := KORE(set, set, unitWeighter)
	if got <= 0.4 {
		t.Errorf("identical keyphrase sets should be highly related, got %v", got)
	}
}

func TestKOREDisjointSets(t *testing.T) {
	a := []kb.Keyphrase{kp("English rock guitarist", 0.9)}
	b := []kb.Keyphrase{kp("quantum flux capacitor", 0.9)}
	if got := KORE(a, b, unitWeighter); got != 0 {
		t.Errorf("disjoint sets must be 0, got %v", got)
	}
}

func TestKOREPartialOverlapOrdering(t *testing.T) {
	// "English rock guitarist" should be closer to "English guitarist"
	// than to "German president" (Sec. 4.3.3 motivating example).
	base := []kb.Keyphrase{kp("English rock guitarist", 0.8)}
	near := []kb.Keyphrase{kp("English guitarist", 0.8)}
	far := []kb.Keyphrase{kp("German president", 0.8)}
	if KORE(base, near, unitWeighter) <= KORE(base, far, unitWeighter) {
		t.Error("partial overlap ordering violated")
	}
}

func TestKORESymmetric(t *testing.T) {
	a := []kb.Keyphrase{kp("English rock guitarist", 0.7), kp("Gibson guitar", 0.9)}
	b := []kb.Keyphrase{kp("hard rock band", 0.6), kp("rock guitarist", 0.4)}
	if !almostEq(KORE(a, b, unitWeighter), KORE(b, a, unitWeighter)) {
		t.Error("KORE must be symmetric")
	}
}

func TestKORESquaredPenalty(t *testing.T) {
	// A one-of-three-word overlap contributes PO² ≈ (1/5)² of the weight,
	// strictly less than proportionally.
	a := []kb.Keyphrase{kp("alpha beta gamma", 1)}
	partial := []kb.Keyphrase{kp("alpha delta epsilon", 1)}
	got := KORE(a, partial, unitWeighter)
	po := 1.0 / 5.0 // |∩|=1, |∪|=5
	want := po * po * 1.0 / 2.0
	if !almostEq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestKOREWeighting(t *testing.T) {
	// Overlap on a high-IDF word should count more than on a low-IDF word.
	w := func(word string) float64 {
		if word == "rare" {
			return 5
		}
		return 1
	}
	a := []kb.Keyphrase{kp("rare common", 1)}
	bRare := []kb.Keyphrase{kp("rare other", 1)}
	bCommon := []kb.Keyphrase{kp("common other", 1)}
	if KORE(a, bRare, w) <= KORE(a, bCommon, w) {
		t.Error("high-weight word overlap must dominate")
	}
}

func TestKeywordCosine(t *testing.T) {
	a := []kb.Keyphrase{kp("English rock guitarist", 0.8)}
	b := []kb.Keyphrase{kp("rock guitarist", 0.8)}
	c := []kb.Keyphrase{kp("quantum flux", 0.8)}
	if KeywordCosine(a, a, unitWeighter) < 0.999 {
		t.Error("self cosine must be 1")
	}
	if KeywordCosine(a, b, unitWeighter) <= KeywordCosine(a, c, unitWeighter) {
		t.Error("cosine ordering violated")
	}
}

func TestKeyphraseCosineAtomic(t *testing.T) {
	// KPCS treats phrases atomically: a partial word overlap scores 0.
	a := []kb.Keyphrase{kp("English rock guitarist", 0.8)}
	b := []kb.Keyphrase{kp("English guitarist", 0.8)}
	if got := KeyphraseCosine(a, b); got != 0 {
		t.Errorf("KPCS partial overlap should be 0, got %v", got)
	}
	if got := KeyphraseCosine(a, a); !almostEq(got, 1) {
		t.Errorf("KPCS self similarity should be 1, got %v", got)
	}
}

// buildClusterKB creates a KB with two topical clusters to test the engine
// and the LSH filter end to end.
func buildClusterKB() (*kb.KB, []kb.EntityID, []kb.EntityID) {
	b := kb.NewBuilder()
	var music, physics []kb.EntityID
	musicPhrases := []string{"rock guitarist", "hard rock band", "studio album", "electric guitar", "rock tour"}
	physicsPhrases := []string{"quantum theory", "particle physics", "nobel prize physics", "quantum field", "particle collider"}
	for i := 0; i < 8; i++ {
		m := b.AddEntity("Musician "+string(rune('A'+i)), "music", "person")
		p := b.AddEntity("Physicist "+string(rune('A'+i)), "science", "person")
		music = append(music, m)
		physics = append(physics, p)
		for j := 0; j < 3; j++ {
			b.AddKeyphrase(m, musicPhrases[(i+j)%len(musicPhrases)])
			b.AddKeyphrase(p, physicsPhrases[(i+j)%len(physicsPhrases)])
		}
	}
	// Dense intra-cluster links.
	for i := range music {
		for j := range music {
			if i != j {
				b.AddLink(music[i], music[j])
				b.AddLink(physics[i], physics[j])
			}
		}
	}
	return b.Build(), music, physics
}

func TestMeasureClusterSeparation(t *testing.T) {
	k, music, physics := buildClusterKB()
	s := NewScorer(k)
	for _, kind := range []Kind{KindMW, KindKWCS, KindKPCS, KindKORE} {
		intra := s.Relatedness(kind, music[0], music[1])
		inter := s.Relatedness(kind, music[0], physics[0])
		if intra <= inter {
			t.Errorf("%v: intra-cluster %v not above inter-cluster %v", kind, intra, inter)
		}
	}
}

func TestMeasureSelfRelatedness(t *testing.T) {
	k, music, _ := buildClusterKB()
	s := NewScorer(k)
	for _, kind := range []Kind{KindMW, KindKWCS, KindKPCS, KindKORE} {
		if got := s.Relatedness(kind, music[0], music[0]); got != 1 {
			t.Errorf("%v: self relatedness = %v", kind, got)
		}
	}
}

// clusterSets returns the keyphrase sets of both clusters' entities, music
// first: the input LSHFilter.PairsOfSets prunes.
func clusterSets() (k *kb.KB, ents []kb.EntityID, sets [][]kb.Keyphrase) {
	k, music, physics := buildClusterKB()
	ents = append(append([]kb.EntityID{}, music...), physics...)
	for _, e := range ents {
		sets = append(sets, k.Entity(e).Keyphrases)
	}
	return k, ents, sets
}

func TestLSHFilterKeepsClusterPairs(t *testing.T) {
	k, ents, sets := clusterSets()
	inCluster := 0
	for _, p := range NewLSHFilter(KindKORELSHG).PairsOfSets(sets) {
		if k.Entity(ents[p[0]]).Domain == k.Entity(ents[p[1]]).Domain {
			inCluster++
		}
	}
	if inCluster == 0 {
		t.Fatal("LSH-G dropped all intra-cluster pairs")
	}
}

func TestLSHFilterPrunes(t *testing.T) {
	_, ents, sets := clusterSets()
	if all := len(ents) * (len(ents) - 1) / 2; len(NewLSHFilter(KindKORELSHF).PairsOfSets(sets)) >= all {
		t.Error("LSH-F should prune at least some pairs")
	}
}

func TestLSHPairsDeterministic(t *testing.T) {
	_, _, sets := clusterSets()
	p1 := NewLSHFilter(KindKORELSHG).PairsOfSets(sets)
	p2 := NewLSHFilter(KindKORELSHG).PairsOfSets(sets)
	if len(p1) != len(p2) {
		t.Fatalf("non-deterministic pair counts: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestKindString(t *testing.T) {
	if KindKORELSHG.String() != "KORE-LSH-G" || KindMW.String() != "MW" {
		t.Error("kind names wrong")
	}
	if !KindKORELSHF.IsLSH() || KindKORE.IsLSH() {
		t.Error("IsLSH wrong")
	}
}

func BenchmarkKORE(b *testing.B) {
	k, music, _ := buildClusterKB()
	s := NewScorer(k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Relatedness(KindKORE, music[0], music[1])
	}
}

func BenchmarkMW(b *testing.B) {
	k, music, _ := buildClusterKB()
	s := NewScorer(k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Relatedness(KindMW, music[0], music[1])
	}
}

func BenchmarkLSHPairs(b *testing.B) {
	_, _, sets := clusterSets()
	f := NewLSHFilter(KindKORELSHF)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.PairsOfSets(sets)
	}
}
