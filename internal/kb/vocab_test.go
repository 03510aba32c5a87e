package kb

import (
	"bytes"
	"slices"
	"testing"
)

// compiledWeights returns the compiled words of an entity's phrase i as
// word → weight, through the ids the store's vocabulary gave them.
func compiledWeights(t *testing.T, s Store, id EntityID, i int) map[string]float64 {
	t.Helper()
	e := s.Entity(id)
	ps := s.Vocabulary().Phrases(id, e.Keyphrases)
	if ps == nil {
		t.Fatalf("entity %d (%s) has no compiled form", id, e.Name)
	}
	at := 0
	for skip := i; skip > 0; skip-- {
		_, _, _, at = ps.Phrase(at)
	}
	ids, wts, _, _ := ps.Phrase(at)
	out := map[string]float64{}
	for k, id := range ids {
		for _, w := range e.Keyphrases[i].Words {
			if wid, ok := s.Vocabulary().ID(w); ok && wid == id {
				out[w] = wts[k]
			}
		}
	}
	return out
}

// TestVocabularyFollowsEveryConstructor: the vocabulary and the compiled
// forms are derived state, and every way of making a store owes them — a KB
// that is built, loaded or rebuilt, a placement view, an overlay, a domain
// layer. Each compiles its entities to the Eq. 3.4 weights: NPMI where the
// entity has a positive one, else the collection IDF.
func TestVocabularyFollowsEveryConstructor(t *testing.T) {
	built := buildMusicKB()
	var file bytes.Buffer
	if err := built.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	delta := musicDelta(built)
	rebuilt, err := Rebuild(built, delta)
	if err != nil {
		t.Fatal(err)
	}
	overlay, err := NewOverlay(built, delta)
	if err != nil {
		t.Fatal(err)
	}
	domain, err := NewDomainLayer(overlay, DomainDictionary{Name: "d", Rows: []DomainRow{{Surface: "Page", Entity: "Larry Page", Count: 50}}})
	if err != nil {
		t.Fatal(err)
	}
	added := EntityID(built.NumEntities())
	for _, c := range []struct {
		name string
		s    Store
		ids  []EntityID
	}{
		{"built", built, []EntityID{0, 4}},
		{"loaded", loaded, []EntityID{0, 4}},
		{"sharded", Shard(built, 4), []EntityID{0, 4}},
		{"rebuilt", rebuilt, []EntityID{0, 4, added}},
		{"overlay", overlay, []EntityID{0, 4, added}},
		{"domain", domain, []EntityID{0, 4, added}},
	} {
		if c.s.Vocabulary() == nil {
			t.Fatalf("%s: no vocabulary", c.name)
		}
		for _, id := range c.ids {
			e := c.s.Entity(id)
			for i, kp := range e.Keyphrases {
				got := compiledWeights(t, c.s, id, i)
				for _, w := range kp.Words {
					want := e.KeywordNPMI[w]
					if want <= 0 {
						want = c.s.WordIDF(w)
					}
					if got[w] != want {
						t.Fatalf("%s: %s, phrase %q: word %q compiled to weight %v, want %v", c.name, e.Name, kp.Phrase, w, got[w], want)
					}
				}
			}
		}
	}
	// A layer that adds no entity and no word shares the scoring state of
	// the generation under it; one that does extends it, ids unchanged.
	if domain.Vocabulary() != overlay.Vocabulary() {
		t.Fatal("a domain layer built its own vocabulary")
	}
	if overlay.Vocabulary() == built.Vocabulary() {
		t.Fatal("an overlay adding an entity shares the base's vocabulary")
	}
	for w := range built.wordIDF {
		a, _ := built.Vocabulary().ID(w)
		if b, ok := overlay.Vocabulary().ID(w); !ok || a != b {
			t.Fatalf("word %q: id %d in the base, %d (known: %v) through the overlay", w, a, b, ok)
		}
	}
	if _, ok := built.Vocabulary().ID("supergroup"); ok {
		t.Fatal(`the base knows "supergroup" before the delta`)
	}
	if _, ok := overlay.Vocabulary().ID("supergroup"); !ok {
		t.Fatal(`the overlay does not know the delta's word "supergroup"`)
	}
}

// TestCompiledFormIsTheEntitysOwn: Phrases answers only for the entity's own
// keyphrase slice. A candidate that carries other keyphrases under the
// entity's id (enriched, hand-built), an id outside the repository and the
// NoEntity placeholder all get nil and are scored from their strings.
func TestCompiledFormIsTheEntitysOwn(t *testing.T) {
	k := buildMusicKB()
	v := k.Vocabulary()
	own := k.Entity(0).Keyphrases
	if v.Phrases(0, own) == nil {
		t.Fatal("the entity's own keyphrases have no compiled form")
	}
	if v.Phrases(0, slices.Clone(own)) != nil {
		t.Fatal("a copy of the keyphrases was taken for the entity's own")
	}
	if v.Phrases(0, own[:len(own)-1]) != nil {
		t.Fatal("a prefix of the keyphrases was taken for the entity's own")
	}
	if v.Phrases(1, own) != nil {
		t.Fatal("another entity's keyphrases were taken for the entity's own")
	}
	for _, id := range []EntityID{NoEntity, EntityID(k.NumEntities()), EntityID(k.NumEntities() + 7)} {
		if v.Phrases(id, nil) != nil {
			t.Fatalf("id %d outside the repository has a compiled form", id)
		}
	}
}

// TestUnresolvedWeightIsNeverCompiled: a phrase word with neither a positive
// NPMI nor an IDF weighs the unknown-word minimum only until a delta
// supplies its IDF, so an entity with such a word has no compiled form — in
// the generation that added it and in those stacked on it, whose lookups
// reach the same side table. The same entity with the IDF already known
// compiles.
func TestUnresolvedWeightIsNeverCompiled(t *testing.T) {
	k := buildMusicKB()
	d := musicDelta(k)
	delete(d.WordIDF, "blues") // "blues supergroup": NPMI for "supergroup" only
	ov, err := NewOverlay(k, d)
	if err != nil {
		t.Fatal(err)
	}
	added := EntityID(k.NumEntities())
	if ov.Vocabulary().Phrases(added, ov.Entity(added).Keyphrases) != nil {
		t.Fatal(`an entity whose word "blues" has no weight yet was compiled`)
	}
	late := &Delta{BaseEntities: ov.NumEntities(), WordIDF: map[string]float64{"blues": 1.5}}
	ov2, err := NewOverlay(ov, late)
	if err != nil {
		t.Fatal(err)
	}
	if ov2.Vocabulary().Phrases(added, ov2.Entity(added).Keyphrases) != nil {
		t.Fatal("a generation stacked on the unresolved one serves a compiled form for the entity")
	}
	if ov2.WordIDF("blues") != 1.5 {
		t.Fatal("the late IDF did not arrive")
	}
	whole, err := NewOverlay(k, musicDelta(k))
	if err != nil {
		t.Fatal(err)
	}
	if whole.Vocabulary().Phrases(added, whole.Entity(added).Keyphrases) == nil {
		t.Fatal("the entity does not compile with every word's IDF known")
	}
}
