package kb

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// buildMusicKB constructs a small hand-written KB used across the tests.
func buildMusicKB() *KB {
	b := NewBuilder()
	jimmy := b.AddEntity("Jimmy Page", "music", "person", "musician")
	larry := b.AddEntity("Larry Page", "tech", "person", "businessperson")
	kashmirSong := b.AddEntity("Kashmir (song)", "music", "song")
	kashmirRegion := b.AddEntity("Kashmir", "geography", "region")
	ledzep := b.AddEntity("Led Zeppelin", "music", "band")
	plant := b.AddEntity("Robert Plant", "music", "person", "musician")

	b.AddName("Page", jimmy, 40)
	b.AddName("Page", larry, 60)
	b.AddName("Kashmir", kashmirRegion, 91)
	b.AddName("Kashmir", kashmirSong, 5)
	b.AddName("Plant", plant, 10)
	b.AddName("Zeppelin", ledzep, 30)

	b.AddLink(jimmy, ledzep)
	b.AddLink(plant, ledzep)
	b.AddLink(jimmy, kashmirSong)
	b.AddLink(plant, kashmirSong)
	b.AddLink(ledzep, kashmirSong)
	b.AddLink(ledzep, jimmy)
	b.AddLink(ledzep, plant)

	b.AddKeyphrase(jimmy, "English rock guitarist")
	b.AddKeyphrase(jimmy, "Led Zeppelin")
	b.AddKeyphrase(jimmy, "Gibson guitar")
	b.AddKeyphrase(jimmy, "hard rock")
	b.AddKeyphrase(larry, "search engine")
	b.AddKeyphrase(larry, "Stanford")
	b.AddKeyphrase(kashmirSong, "Led Zeppelin")
	b.AddKeyphrase(kashmirSong, "hard rock")
	b.AddKeyphrase(kashmirSong, "Physical Graffiti")
	b.AddKeyphrase(kashmirRegion, "Himalaya mountains")
	b.AddKeyphrase(kashmirRegion, "disputed territory")
	b.AddKeyphrase(ledzep, "English rock band")
	b.AddKeyphrase(ledzep, "hard rock")
	b.AddKeyphrase(plant, "English rock singer")
	b.AddKeyphrase(plant, "Led Zeppelin")
	return b.Build()
}

func TestCandidatesSortedByPrior(t *testing.T) {
	k := buildMusicKB()
	cands := k.Candidates("Page")
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	if k.Entity(cands[0].Entity).Name != "Larry Page" {
		t.Errorf("highest-prior candidate should be Larry Page, got %s", k.Entity(cands[0].Entity).Name)
	}
	if math.Abs(cands[0].Prior-0.6) > 1e-9 || math.Abs(cands[1].Prior-0.4) > 1e-9 {
		t.Errorf("priors wrong: %v", cands)
	}
}

func TestPriorsSumToOne(t *testing.T) {
	k := buildMusicKB()
	for _, name := range []string{"Page", "Kashmir", "Plant"} {
		sum := 0.0
		for _, c := range k.Candidates(name) {
			sum += c.Prior
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("priors for %q sum to %v", name, sum)
		}
	}
}

func TestCandidatesCaseRules(t *testing.T) {
	k := buildMusicKB()
	if got := k.Candidates("PAGE"); len(got) != 2 {
		t.Errorf("long names should match case-insensitively, got %v", got)
	}
	if got := k.Candidates("page"); len(got) != 2 {
		t.Errorf("long names should match case-insensitively, got %v", got)
	}
}

func TestUnknownName(t *testing.T) {
	k := buildMusicKB()
	if got := k.Candidates("Snowden"); got != nil {
		t.Errorf("unknown name should yield nil, got %v", got)
	}
	if k.HasName(NormalizeName("Snowden")) {
		t.Error("HasName should be false for unknown names")
	}
}

func TestLinksSymmetry(t *testing.T) {
	k := buildMusicKB()
	jimmy, _ := k.EntityByName("Jimmy Page")
	ledzep, _ := k.EntityByName("Led Zeppelin")
	found := false
	for _, in := range k.Entity(ledzep).InLinks {
		if in == jimmy {
			found = true
		}
	}
	if !found {
		t.Error("Jimmy Page should be an in-link of Led Zeppelin")
	}
	// In/out links are sorted and deduplicated.
	for _, e := range k.Entities() {
		if !sortedUnique(e.InLinks) || !sortedUnique(e.OutLinks) {
			t.Errorf("links of %s not sorted/unique", e.Name)
		}
	}
}

func sortedUnique(ids []EntityID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

func TestKeyphraseWeights(t *testing.T) {
	k := buildMusicKB()
	jimmy, _ := k.EntityByName("Jimmy Page")
	ent := k.Entity(jimmy)
	if len(ent.Keyphrases) != 4 {
		t.Fatalf("want 4 keyphrases, got %d", len(ent.Keyphrases))
	}
	var gibsonMI, hardRockMI float64
	for _, p := range ent.Keyphrases {
		switch p.Phrase {
		case "Gibson guitar":
			gibsonMI = p.MI
		case "hard rock":
			hardRockMI = p.MI
		}
		if p.MI < 0 || p.MI > 1 {
			t.Errorf("MI weight of %q out of range: %v", p.Phrase, p.MI)
		}
		if p.IDF < 0 {
			t.Errorf("IDF of %q negative", p.Phrase)
		}
	}
	// "Gibson guitar" is unique to Jimmy Page and "hard rock" is shared
	// with his own cluster; both must be positive signals for him.
	if gibsonMI <= 0 || hardRockMI <= 0 {
		t.Errorf("MI weights should be positive: gibson=%v hardrock=%v", gibsonMI, hardRockMI)
	}
}

func TestKeyphraseIDFOrdering(t *testing.T) {
	k := buildMusicKB()
	// "Physical Graffiti" appears for 1 entity, "hard rock" for 3: the
	// rarer phrase must have strictly higher IDF.
	if k.PhraseIDF("physical graffiti") <= k.PhraseIDF("hard rock") {
		t.Errorf("IDF ordering violated: rare=%v frequent=%v",
			k.PhraseIDF("physical graffiti"), k.PhraseIDF("hard rock"))
	}
}

func TestKeywordNPMIDiscardsNonPositive(t *testing.T) {
	k := buildMusicKB()
	for _, e := range k.Entities() {
		for w, v := range e.KeywordNPMI {
			if v <= 0 {
				t.Errorf("entity %s keeps non-positive NPMI for %q: %v", e.Name, w, v)
			}
		}
	}
}

func TestKeywordWeightFallback(t *testing.T) {
	k := buildMusicKB()
	jimmy, _ := k.EntityByName("Jimmy Page")
	npmi := k.Entity(jimmy).KeywordNPMI
	if w := npmi["guitarist"]; w <= 0 {
		t.Errorf("keyword of own keyphrase should have positive weight, got %v", w)
	}
	if w := npmi["nonexistentword"]; w != 0 {
		t.Errorf("unknown keyword should have zero weight, got %v", w)
	}
}

func TestPhraseWordsFiltersStopwords(t *testing.T) {
	got := PhraseWords("Bank of England")
	want := []string{"bank", "england"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestIntersectSortedSize(t *testing.T) {
	a := []EntityID{1, 3, 5, 7}
	b := []EntityID{2, 3, 4, 5, 9}
	if got := IntersectSortedSize(a, b); got != 2 {
		t.Fatalf("got %d want 2", got)
	}
	if got := IntersectSortedSize(nil, b); got != 0 {
		t.Fatalf("empty intersection: got %d", got)
	}
}

func TestIntersectSortedSizeProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		am := map[EntityID]bool{}
		bm := map[EntityID]bool{}
		var a, b []EntityID
		for _, x := range xs {
			am[EntityID(x)] = true
		}
		for _, y := range ys {
			bm[EntityID(y)] = true
		}
		for id := range am {
			a = append(a, id)
		}
		for id := range bm {
			b = append(b, id)
		}
		a, b = dedupIDs(a), dedupIDs(b)
		want := 0
		for id := range am {
			if bm[id] {
				want++
			}
		}
		return IntersectSortedSize(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateEntityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate canonical name")
		}
	}()
	b := NewBuilder()
	b.AddEntity("Jimmy Page", "music")
	b.AddEntity("Jimmy Page", "music")
}

func TestSaveLoadRoundTrip(t *testing.T) {
	k := buildMusicKB()
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	k2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k2.NumEntities() != k.NumEntities() {
		t.Fatalf("entity count changed: %d vs %d", k2.NumEntities(), k.NumEntities())
	}
	if !reflect.DeepEqual(k.Candidates("Page"), k2.Candidates("Page")) {
		t.Error("candidates changed after round trip")
	}
	jimmy, ok := k2.EntityByName("Jimmy Page")
	if !ok {
		t.Fatal("byName index not rebuilt")
	}
	if !reflect.DeepEqual(k.Entity(jimmy).Keyphrases, k2.Entity(jimmy).Keyphrases) {
		t.Error("keyphrases changed after round trip")
	}
	if k.PhraseIDF("hard rock") != k2.PhraseIDF("hard rock") {
		t.Error("IDF changed after round trip")
	}
}

func TestSelfLinkIgnored(t *testing.T) {
	b := NewBuilder()
	e := b.AddEntity("Solo", "misc")
	b.AddLink(e, e)
	k := b.Build()
	if len(k.Entity(e).OutLinks) != 0 {
		t.Error("self links must be ignored")
	}
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildMusicKB()
	}
}

func BenchmarkCandidates(b *testing.B) {
	k := buildMusicKB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Candidates("Kashmir")
	}
}
