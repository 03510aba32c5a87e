package kb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// musicDelta is a hand-written delta over buildMusicKB: one new entity
// (reusing base vocabulary plus one fresh phrase with its IDF entries),
// a row re-weighting the ambiguous "Page" surface, and links in both
// directions between the new entity and existing ones.
func musicDelta(k *KB) *Delta {
	base := EntityID(k.NumEntities())
	return &Delta{
		BaseEntities: k.NumEntities(),
		Entities: []NewEntity{{
			Name:   "Coverdale Page",
			Domain: "music",
			Types:  []string{"album"},
			Keyphrases: []Keyphrase{
				{Phrase: "hard rock", Words: PhraseWords("hard rock"), MI: 0.8, IDF: k.PhraseIDF("hard rock")},
				{Phrase: "blues supergroup", Words: PhraseWords("blues supergroup"), MI: 0.6, IDF: 1.5},
			},
			KeywordNPMI: map[string]float64{"rock": 0.4, "supergroup": 0.9},
		}},
		Rows: []RowAddition{
			{Surface: "Page", Entity: base, Count: 25},
			{Surface: "Coverdale", Entity: base, Count: 5},
		},
		Links: []LinkAddition{
			{Src: base, Dst: 0}, // Coverdale Page -> Jimmy Page
			{Src: 0, Dst: base},
			{Src: base, Dst: 4}, // -> Led Zeppelin
		},
		PhraseIDF: map[string]float64{"blues supergroup": 1.5},
		WordIDF:   map[string]float64{"supergroup": 1.5, "blues": 1.5},
	}
}

func TestDeltaValidate(t *testing.T) {
	k := buildMusicKB()
	good := musicDelta(k)
	if err := good.Validate(k); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Delta)
	}{
		{"generation mismatch", func(d *Delta) { d.BaseEntities++ }},
		{"empty name", func(d *Delta) { d.Entities[0].Name = "" }},
		{"duplicate of base name", func(d *Delta) { d.Entities[0].Name = "Jimmy Page" }},
		{"duplicate within delta", func(d *Delta) { d.Entities = append(d.Entities, d.Entities[0]) }},
		{"empty row surface", func(d *Delta) { d.Rows[0].Surface = "  " }},
		{"non-positive row count", func(d *Delta) { d.Rows[0].Count = 0 }},
		{"row entity out of range", func(d *Delta) { d.Rows[0].Entity = 99 }},
		{"self link", func(d *Delta) { d.Links[0].Dst = d.Links[0].Src }},
		{"link out of range", func(d *Delta) { d.Links[0].Dst = -2 }},
		{"IDF rewrite of base weight", func(d *Delta) { d.PhraseIDF["hard rock"] = 2 }},
		{"non-positive IDF", func(d *Delta) { d.WordIDF["supergroup"] = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := musicDelta(k)
			tc.mutate(d)
			if err := d.Validate(k); err == nil {
				t.Fatal("invalid delta passed validation")
			}
		})
	}
}

func TestOverlayMatchesRebuild(t *testing.T) {
	k := buildMusicKB()
	d := musicDelta(k)
	ov, err := NewOverlay(k, d)
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	full, err := Rebuild(k, d)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	assertStoresEqual(t, ov, full)
	if ov.Fingerprint() == k.Fingerprint() {
		t.Error("content-changing delta left the fingerprint unchanged")
	}
	// The base is untouched: old reads still see the old generation.
	if k.NumEntities() != d.BaseEntities {
		t.Error("base entity count changed")
	}
	if _, ok := k.EntityByName("Coverdale Page"); ok {
		t.Error("base resolves the overlay-only entity")
	}
	if len(k.Entity(0).InLinks) != len(full.Entity(0).InLinks)-1 {
		t.Error("base link set mutated by the merge")
	}
}

func TestOverlayStacks(t *testing.T) {
	k := buildMusicKB()
	ov1, err := NewOverlay(k, musicDelta(k))
	if err != nil {
		t.Fatalf("overlay 1: %v", err)
	}
	d2 := &Delta{
		BaseEntities: ov1.NumEntities(),
		Entities:     []NewEntity{{Name: "Whitesnake", Domain: "music"}},
		Links:        []LinkAddition{{Src: EntityID(ov1.NumEntities()), Dst: 6}},
		Rows:         []RowAddition{{Surface: "Page", Entity: 6, Count: 10}},
	}
	ov2, err := NewOverlay(ov1, d2)
	if err != nil {
		t.Fatalf("overlay 2: %v", err)
	}
	// The equivalent flat rebuild: both deltas baked into fresh KBs.
	full1, err := Rebuild(k, musicDelta(k))
	if err != nil {
		t.Fatalf("rebuild 1: %v", err)
	}
	full2, err := Rebuild(full1, d2)
	if err != nil {
		t.Fatalf("rebuild 2: %v", err)
	}
	assertStoresEqual(t, ov2, full2)
	// The intermediate generation still serves its own content.
	if _, ok := ov1.EntityByName("Whitesnake"); ok {
		t.Error("generation 1 sees a generation-2 entity")
	}
}

func TestEmptyDeltaKeepsFingerprint(t *testing.T) {
	k := buildMusicKB()
	ov, err := NewOverlay(k, &Delta{BaseEntities: k.NumEntities()})
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	if ov.Fingerprint() != k.Fingerprint() {
		t.Error("empty delta changed the fingerprint")
	}
}

// assertStoresEqual deep-compares the full read surface of two stores.
func assertStoresEqual(t *testing.T, a, b Store) {
	t.Helper()
	if a.NumEntities() != b.NumEntities() {
		t.Fatalf("NumEntities %d != %d", a.NumEntities(), b.NumEntities())
	}
	for id := EntityID(0); id < EntityID(a.NumEntities()); id++ {
		ea, eb := a.Entity(id), b.Entity(id)
		if !reflect.DeepEqual(ea, eb) {
			t.Errorf("entity %d differs:\n  overlay: %+v\n  rebuild: %+v", id, ea, eb)
		}
	}
	na, nb := a.Names(), b.Names()
	if !reflect.DeepEqual(na, nb) {
		t.Fatalf("Names differ:\n  overlay: %v\n  rebuild: %v", na, nb)
	}
	for _, name := range na {
		ca, cb := a.Candidates(name), b.Candidates(name)
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("Candidates(%q) differ:\n  overlay: %+v\n  rebuild: %+v", name, ca, cb)
		}
		if !a.HasName(name) || !b.HasName(name) {
			t.Errorf("HasName(%q) false on a store that lists it", name)
		}
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("fingerprints differ: %016x != %016x", fa, fb)
	}
}

// FuzzDeltaApply generates random (but always valid) deltas over the music
// KB and checks the core invariants on the overlay: it matches a full
// rebuild bit for bit, its fingerprint changes exactly when the delta has
// content, candidate lists stay sorted with priors summing to 1, and every
// reference stays in range.
func FuzzDeltaApply(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(20130610))
	f.Fuzz(func(t *testing.T, seed int64) {
		k := buildMusicKB()
		d := randomDelta(k, seed)
		ov, err := NewOverlay(k, d)
		if err != nil {
			t.Fatalf("generated delta rejected: %v (delta %+v)", err, d)
		}
		full, err := Rebuild(k, d)
		if err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
		assertStoresEqual(t, ov, full)

		contentful := len(d.Entities) > 0 || len(d.Rows) > 0 || addsNewLink(k, d)
		changed := ov.Fingerprint() != k.Fingerprint()
		if changed != contentful {
			t.Errorf("fingerprint changed=%v but delta contentful=%v (%+v)", changed, contentful, d)
		}

		for _, name := range ov.Names() {
			cands := ov.Candidates(name)
			if len(cands) == 0 {
				t.Errorf("listed name %q has no candidates", name)
				continue
			}
			sum := 0.0
			for i, c := range cands {
				sum += c.Prior
				if c.Count <= 0 {
					t.Errorf("Candidates(%q)[%d] has count %d", name, i, c.Count)
				}
				if c.Entity < 0 || int(c.Entity) >= ov.NumEntities() {
					t.Errorf("Candidates(%q)[%d] references entity %d out of range", name, i, c.Entity)
				}
				if i > 0 {
					prev := cands[i-1]
					if c.Prior > prev.Prior || (c.Prior == prev.Prior && c.Entity <= prev.Entity) {
						t.Errorf("Candidates(%q) not sorted at %d", name, i)
					}
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("Candidates(%q) priors sum to %g", name, sum)
			}
		}
	})
}

// addsNewLink reports whether the delta contains a link edge the base does
// not already have (a duplicate edge is a no-op and must not change the
// fingerprint).
func addsNewLink(k *KB, d *Delta) bool {
	for _, l := range d.Links {
		if int(l.Src) >= k.NumEntities() || int(l.Dst) >= k.NumEntities() {
			return true
		}
		found := false
		for _, dst := range k.Entity(l.Src).OutLinks {
			if dst == l.Dst {
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

// randomDelta builds a seed-deterministic valid delta: a random subset of
// new entities (vocabulary drawn from the base plus fresh phrases with
// matching IDF entries), row additions over base surfaces and new names,
// and random link edges.
func randomDelta(k *KB, seed int64) *Delta {
	rng := rand.New(rand.NewSource(seed))
	baseN := k.NumEntities()
	d := &Delta{BaseEntities: baseN}
	basePhrases := []string{"hard rock", "search engine", "Himalaya mountains"}
	newEntities := rng.Intn(3)
	for i := 0; i < newEntities; i++ {
		ne := NewEntity{
			Name:   "EE-" + string(rune('a'+rng.Intn(26))) + "-" + string(rune('0'+i)),
			Domain: "emerging",
			Types:  []string{"emerging"},
		}
		for p := 0; p < rng.Intn(3); p++ {
			if rng.Intn(2) == 0 {
				ph := basePhrases[rng.Intn(len(basePhrases))]
				ne.Keyphrases = append(ne.Keyphrases, Keyphrase{
					Phrase: ph, Words: PhraseWords(ph), MI: rng.Float64(), IDF: k.PhraseIDF(ph),
				})
			} else {
				ph := "zzz phrase " + string(rune('a'+rng.Intn(4)))
				ne.Keyphrases = append(ne.Keyphrases, Keyphrase{
					Phrase: ph, Words: PhraseWords(ph), MI: rng.Float64(), IDF: 2.5,
				})
				if d.PhraseIDF == nil {
					d.PhraseIDF = map[string]float64{}
					d.WordIDF = map[string]float64{}
				}
				d.PhraseIDF[ph] = 2.5
				for _, w := range PhraseWords(ph) {
					if k.WordIDF(w) == 0 {
						d.WordIDF[w] = 2.5
					}
				}
			}
		}
		if rng.Intn(2) == 0 {
			ne.KeywordNPMI = map[string]float64{"rock": rng.Float64()}
		}
		d.Entities = append(d.Entities, ne)
	}
	total := baseN + len(d.Entities)
	names := k.Names()
	for r := 0; r < rng.Intn(4); r++ {
		d.Rows = append(d.Rows, RowAddition{
			Surface: names[rng.Intn(len(names))],
			Entity:  EntityID(rng.Intn(total)),
			Count:   1 + rng.Intn(50),
		})
	}
	for l := 0; l < rng.Intn(4); l++ {
		src := EntityID(rng.Intn(total))
		dst := EntityID(rng.Intn(total))
		if src == dst {
			continue
		}
		d.Links = append(d.Links, LinkAddition{Src: src, Dst: dst})
	}
	return d
}
