// Package kb implements the knowledge base substrate of the dissertation
// (Sec. 2.3): an entity repository E, a name–entity dictionary D harvested
// from titles, redirects, disambiguation pages and link anchors, a link
// graph between entities, and per-entity keyphrase features F with the
// statistical weights AIDA and KORE consume (keyword NPMI per Eq. 3.1–3.3,
// keyphrase µ per Eq. 4.1, global IDF per Eq. 3.5, anchor-based popularity
// prior per Sec. 3.3.3).
//
// A KB is built once with a Builder and is immutable and safe for concurrent
// reads afterwards.
package kb

import (
	"fmt"
	"sort"
	"strings"

	"aida/internal/ner"
	"aida/internal/textstat"
	"aida/internal/tokenizer"
)

// EntityID identifies an entity in the repository.
type EntityID int32

// NoEntity marks a mention whose true entity is out of the knowledge base
// (the OOE / emerging-entity label).
const NoEntity EntityID = -1

// Keyphrase is a salient phrase describing an entity, with its weights.
// The JSON tags define its wire form inside a Delta (the live-update
// endpoint); the in-process pipeline never serializes it as JSON.
type Keyphrase struct {
	Phrase string   `json:"phrase"`          // surface form, e.g. "English rock guitarist"
	Words  []string `json:"words,omitempty"` // lower-cased content words of the phrase
	MI     float64  `json:"mi"`              // µ weight of the phrase w.r.t. the entity (Eq. 4.1)
	IDF    float64  `json:"idf"`             // global phrase IDF (Eq. 3.5)
}

// Entity is one canonical entity of the repository.
type Entity struct {
	ID         EntityID
	Name       string   // canonical name, unique within the KB
	Domain     string   // topical domain, e.g. "music" (YAGO-like class)
	Types      []string // semantic types
	InLinks    []EntityID
	OutLinks   []EntityID
	Keyphrases []Keyphrase
	// KeywordNPMI holds the entity-specific keyword weights of Eq. 3.1;
	// keywords with non-positive NPMI are absent (they are discarded for
	// NED, Sec. 3.3.4).
	KeywordNPMI map[string]float64
}

// nameEntry is one dictionary row: this name refers to this entity with the
// given anchor-occurrence count.
type nameEntry struct {
	Entity EntityID
	Count  int
}

// Candidate is a dictionary lookup result with its popularity prior.
type Candidate struct {
	Entity EntityID
	Prior  float64 // P(entity | name), from anchor counts
	Count  int
}

// KB is the immutable knowledge base.
type KB struct {
	entities  []Entity
	byName    map[string]EntityID    // canonical name → id
	dict      map[string][]nameEntry // normalized surface → entries
	phraseIDF map[string]float64
	wordIDF   map[string]float64

	// Derived from the fields above by finish, never stored or compared.
	cands map[string][]Candidate // normalized surface → materialized candidates
	vocab *Vocab

	fp fingerprintOnce // lazily computed content hash
}

// finish derives the lookup state every way of making a KB owes it — Build,
// Load and Rebuild all end here — from the content fields. Compiling the
// entities' keyphrases is not part of it (a server's boot does not wait for
// that): the vocabulary does it on demand and, from the first demand on, in
// bulk in the background.
func (k *KB) finish() *KB {
	k.cands = precomputeCandidates(k.dict)
	k.vocab = newVocab(k, k.wordIDF, len(k.entities), true)
	return k
}

// Vocabulary implements Store.
func (k *KB) Vocabulary() *Vocab { return k.vocab }

// NumEntities returns |E|.
func (k *KB) NumEntities() int { return len(k.entities) }

// Entity returns the entity with the given id. It panics on ids outside the
// repository; NoEntity is not a valid argument.
func (k *KB) Entity(id EntityID) *Entity { return &k.entities[id] }

// Entities returns a read-only view of the repository.
func (k *KB) Entities() []Entity { return k.entities }

// EntityByName looks up an entity by its canonical name.
func (k *KB) EntityByName(name string) (EntityID, bool) {
	id, ok := k.byName[name]
	return id, ok
}

// NormalizeName maps a surface form to its dictionary key, following the
// case rules of Sec. 3.3.2 (names of ≤3 characters stay case-sensitive).
func NormalizeName(surface string) string { return ner.Normalized(surface) }

// HasName implements ner.Lexicon.
func (k *KB) HasName(normalized string) bool {
	_, ok := k.dict[normalized]
	return ok
}

// Candidates returns the candidate entities for a surface form, sorted by
// descending prior (ties broken by id for determinism). A nil slice means
// the dictionary has no entry and the mention trivially refers to an OOE.
// The returned slice is shared and must not be modified: priors are
// materialized once at construction time (via candidatesFrom, so the bytes
// match the historical per-call computation), which takes the dictionary
// lookup off the annotate hot path's allocation budget.
func (k *KB) Candidates(surface string) []Candidate {
	return k.cands[NormalizeName(surface)]
}

// sortCandidates orders candidates by descending prior, ties by ascending
// id — the canonical candidate order of every Store implementation.
func sortCandidates(out []Candidate) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prior != out[j].Prior {
			return out[i].Prior > out[j].Prior
		}
		return out[i].Entity < out[j].Entity
	})
}

// Names returns all dictionary keys (normalized names), sorted.
func (k *KB) Names() []string {
	out := make([]string, 0, len(k.dict))
	for n := range k.dict {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PhraseIDF returns the global IDF of a keyphrase (Eq. 3.5).
func (k *KB) PhraseIDF(phrase string) float64 { return lowerIDF(k.phraseIDF, phrase) }

// WordIDF returns the global IDF of a keyword.
func (k *KB) WordIDF(word string) float64 { return lowerIDF(k.wordIDF, word) }

// lowerIDF is the shared lower-cased IDF table lookup of every Store
// implementation.
func lowerIDF(table map[string]float64, key string) float64 {
	return table[strings.ToLower(key)]
}

// IntersectSortedSize counts the common elements of two sorted id slices.
func IntersectSortedSize(a, b []EntityID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// PhraseWords lower-cases and stopword-filters the words of a phrase; this
// is the canonical phrase→word mapping used for all keyphrase features.
func PhraseWords(phrase string) []string {
	return tokenizer.ContentWords(phrase)
}

// Builder assembles a KB.
type Builder struct {
	entities []Entity
	byName   map[string]EntityID
	dict     map[string]map[EntityID]int
	phrases  map[EntityID][]string
	links    map[EntityID][]EntityID // out-links
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		byName:  make(map[string]EntityID),
		dict:    make(map[string]map[EntityID]int),
		phrases: make(map[EntityID][]string),
		links:   make(map[EntityID][]EntityID),
	}
}

// AddEntity registers a new entity with its canonical name (which also
// becomes a dictionary entry) and returns its id.
func (b *Builder) AddEntity(name, domain string, types ...string) EntityID {
	if _, dup := b.byName[name]; dup {
		panic(fmt.Sprintf("kb: duplicate entity name %q", name))
	}
	id := EntityID(len(b.entities))
	b.entities = append(b.entities, Entity{ID: id, Name: name, Domain: domain, Types: types})
	b.byName[name] = id
	b.AddName(name, id, 1)
	return id
}

// AddName adds a dictionary entry: surface → entity, observed count times
// (anchor occurrences). Counts accumulate across calls.
func (b *Builder) AddName(surface string, e EntityID, count int) {
	key := NormalizeName(surface)
	m := b.dict[key]
	if m == nil {
		m = make(map[EntityID]int)
		b.dict[key] = m
	}
	m[e] += count
}

// AddLink records a directed link between entities (Wikipedia-style).
func (b *Builder) AddLink(src, dst EntityID) {
	if src == dst {
		return
	}
	b.links[src] = append(b.links[src], dst)
}

// AddKeyphrase attaches a keyphrase to an entity. Duplicates are merged at
// Build time.
func (b *Builder) AddKeyphrase(e EntityID, phrase string) {
	b.phrases[e] = append(b.phrases[e], phrase)
}

// Build computes link sets, IDF and MI weights, and freezes the KB.
func (b *Builder) Build() *KB {
	n := len(b.entities)
	k := &KB{
		entities:  b.entities,
		byName:    b.byName,
		dict:      make(map[string][]nameEntry, len(b.dict)),
		phraseIDF: make(map[string]float64),
		wordIDF:   make(map[string]float64),
	}
	for key, m := range b.dict {
		entries := make([]nameEntry, 0, len(m))
		for e, c := range m {
			entries = append(entries, nameEntry{Entity: e, Count: c})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Entity < entries[j].Entity })
		k.dict[key] = entries
	}

	// Link sets.
	inLinks := make(map[EntityID][]EntityID)
	for src, dsts := range b.links {
		dsts = dedupIDs(dsts)
		k.entities[src].OutLinks = dsts
		for _, d := range dsts {
			inLinks[d] = append(inLinks[d], src)
		}
	}
	for id := range k.entities {
		k.entities[id].InLinks = dedupIDs(inLinks[EntityID(id)])
	}

	// Per-entity keyphrase sets (deduplicated, lower-case keyed).
	entPhrases := make([][]string, n)
	phraseDocs := make(map[string][]EntityID) // lower phrase → entities having it
	wordDocs := make(map[string][]EntityID)   // word → entities having it in any phrase
	for id := 0; id < n; id++ {
		seen := map[string]bool{}
		seenWord := map[string]bool{}
		for _, p := range b.phrases[EntityID(id)] {
			lp := strings.ToLower(p)
			if seen[lp] {
				continue
			}
			seen[lp] = true
			entPhrases[id] = append(entPhrases[id], p)
			phraseDocs[lp] = append(phraseDocs[lp], EntityID(id))
			for _, w := range PhraseWords(p) {
				if !seenWord[w] {
					seenWord[w] = true
					wordDocs[w] = append(wordDocs[w], EntityID(id))
				}
			}
		}
	}

	// Global IDF weights.
	for lp, docs := range phraseDocs {
		k.phraseIDF[lp] = textstat.IDF(float64(n), float64(len(docs)))
	}
	for w, docs := range wordDocs {
		k.wordIDF[w] = textstat.IDF(float64(n), float64(len(docs)))
	}

	// Entity-specific weights via the superdocument model (Sec. 3.3.4,
	// 4.3.1): the superdocument of e is e plus all entities linking to e.
	fN := float64(n)
	for id := 0; id < n; id++ {
		ent := &k.entities[id]
		super := superdoc(EntityID(id), ent.InLinks)
		pe := float64(len(super)) / fN
		ent.KeywordNPMI = make(map[string]float64)
		words := map[string]bool{}
		for _, p := range entPhrases[id] {
			lp := strings.ToLower(p)
			pw := PhraseWords(p)
			// µ weight for the phrase from the 2×2 contingency table of
			// "doc is in superdoc(e)" × "doc has phrase".
			docs := phraseDocs[lp]
			n11 := float64(IntersectSortedSize(docs, super))
			n10 := float64(len(super)) - n11
			n01 := float64(len(docs)) - n11
			n00 := fN - n11 - n10 - n01
			ent.Keyphrases = append(ent.Keyphrases, Keyphrase{
				Phrase: p,
				Words:  pw,
				MI:     textstat.ContingencyMI(n11, n10, n01, n00),
				IDF:    k.phraseIDF[lp],
			})
			for _, w := range pw {
				words[w] = true
			}
		}
		for w := range words {
			docs := wordDocs[w]
			joint := float64(IntersectSortedSize(docs, super)) / fN
			pk := float64(len(docs)) / fN
			if npmi := textstat.NPMI(joint, pe, pk); npmi > 0 {
				ent.KeywordNPMI[w] = npmi
			}
		}
	}
	return k.finish()
}

// superdoc returns {e} ∪ IN(e) as a sorted slice.
func superdoc(e EntityID, in []EntityID) []EntityID {
	out := make([]EntityID, 0, len(in)+1)
	out = append(out, in...)
	out = append(out, e)
	return dedupIDs(out)
}

func dedupIDs(ids []EntityID) []EntityID {
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
