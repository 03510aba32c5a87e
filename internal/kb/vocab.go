package kb

import (
	"strings"
	"sync/atomic"

	"aida/internal/textstat"
)

// WordID is a keyword's dense id in a Vocab. Ids are process-local: a
// vocabulary numbers its words in map order, so the same KB file yields
// different ids on every load, and nothing keyed by them is ever encoded —
// not into the KB file, a delta, a snapshot or a /v1/store payload.
type WordID = textstat.WordID

// Vocab is the derived, read-only scoring state of one Store generation:
// the keyword vocabulary (word → WordID) and, in a side table keyed by
// entity id, every entity's keyphrases compiled against it (see Phrases).
// Neither is part of the repository content — Fingerprint, the KB file, the
// delta journal and the fleet wire never see them — and every constructor of
// a Store derives them again.
//
// A generation stacked on another (an Overlay) extends the vocabulary
// instead of copying it: the root's word table is shared by every
// descendant and only the words deltas added since are carried along, so a
// lookup is two probes at any overlay depth. Ids are stable down the chain:
// a word keeps the id of the generation that first saw it.
//
// Safe for concurrent use. An entity is compiled by whoever scores it first;
// a local KB also walks its entities once in the background, starting when
// the first of them is scored.
type Vocab struct {
	root map[string]WordID // the root generation's words
	ext  map[string]WordID // words added since by deltas; nil when none

	// The compiled forms of entities first..first+len(forms) are this
	// layer's, compiled from src; lower ids belong to the layers below.
	below *Vocab
	first EntityID
	src   Store
	forms []atomic.Pointer[compiledEntity]

	// bulk says this layer's entities are local and many (a *KB's): the
	// first lookup that finds one uncompiled starts compileAll, once.
	bulk    bool
	started atomic.Bool
}

// compiledEntity is one entity's compiled keyphrases and the keyphrase
// slice they were compiled from. ok is false when the entity cannot be
// compiled for good (see Phrases).
type compiledEntity struct {
	phrases textstat.Phrases
	of      []Keyphrase
	ok      bool
}

// newVocab builds a root generation's vocabulary from its IDF table's keys;
// src serves the generation's n entities, in memory if bulk.
func newVocab(src Store, wordIDF map[string]float64, n int, bulk bool) *Vocab {
	v := &Vocab{
		root:  make(map[string]WordID, len(wordIDF)),
		src:   src,
		forms: make([]atomic.Pointer[compiledEntity], n),
		bulk:  bulk,
	}
	for w := range wordIDF {
		v.root[w] = WordID(len(v.root))
	}
	return v
}

// extend returns the vocabulary of a generation that adds a delta's entities
// and words on top of v's; src is that generation's store. A delta with
// neither (a dictionary-only delta, a domain layer) changes nothing about
// scoring state, and the generation shares v itself.
func (v *Vocab) extend(src Store, d *Delta) *Vocab {
	var fresh []string
	note := func(w string) {
		if _, ok := v.ID(w); !ok {
			fresh = append(fresh, w)
		}
	}
	for w := range d.WordIDF {
		note(strings.ToLower(w))
	}
	for i := range d.Entities {
		for _, kp := range d.Entities[i].Keyphrases {
			for _, w := range kp.Words {
				note(w)
			}
		}
	}
	if len(fresh) == 0 && len(d.Entities) == 0 {
		return v
	}
	nv := &Vocab{
		root:  v.root,
		ext:   v.ext,
		below: v,
		first: EntityID(d.BaseEntities),
		src:   src,
		forms: make([]atomic.Pointer[compiledEntity], len(d.Entities)),
	}
	if len(fresh) > 0 {
		// Copy only the words added since the root: the root table is the
		// large one and is never copied.
		nv.ext = make(map[string]WordID, len(v.ext)+len(fresh))
		for w, id := range v.ext {
			nv.ext[w] = id
		}
		for _, w := range fresh {
			if _, dup := nv.ext[w]; !dup {
				nv.ext[w] = WordID(len(nv.root) + len(nv.ext))
			}
		}
	}
	return nv
}

// ID returns the id of a keyword, matched exactly as a document token or a
// phrase word is; ok is false for a word the generation's keyphrases and IDF
// table do not have.
func (v *Vocab) ID(word string) (id WordID, ok bool) {
	if id, ok = v.root[word]; !ok && v.ext != nil {
		id, ok = v.ext[word]
	}
	return id, ok
}

// Phrases returns the compiled keyphrases of entity id — per phrase its
// distinct words as ids with their Eq. 3.4 weights (NPMI where the entity
// has a positive one, else the collection IDF) — or nil when the caller must
// score the entity from its strings instead:
//
//   - own is not the entity's own Keyphrases slice: the candidate carries
//     features of its own (enriched or hand-built), or is no entity of this
//     generation at all;
//   - a phrase word is outside the vocabulary, or has neither weight. Such a
//     word weighs the unknown-word minimum (0.1) only until a later delta
//     supplies its IDF, and a compiled form is kept for every generation
//     stacked on this one — so the fallback is never compiled in.
//
// A form that does compile is final: no delta can rewrite a non-zero IDF or
// an entity's NPMI.
func (v *Vocab) Phrases(id EntityID, own []Keyphrase) *textstat.Phrases {
	if id < 0 {
		return nil
	}
	for id < v.first {
		v = v.below
	}
	i := int(id - v.first)
	if i >= len(v.forms) {
		return nil
	}
	c := v.forms[i].Load()
	if c == nil {
		if v.bulk && v.started.CompareAndSwap(false, true) {
			go v.compileAll()
		}
		c = v.compile(v.src.Entity(id))
		v.forms[i].Store(c) // racing compiles build equal forms
	}
	if !c.ok || len(own) != len(c.of) || (len(own) > 0 && &own[0] != &c.of[0]) {
		return nil
	}
	return &c.phrases
}

// compileAll compiles this layer's entities that nobody has scored yet, in
// bulk. A local KB's layer runs it once, in a goroutine of its own started by
// the first lookup that misses, so that neither the boot nor every first
// document to meet an entity pays for the strings. The pass walks the
// entities once and exits; nothing waits for it, and an entity it has not
// reached is compiled by whoever scores it first. Layers whose entities are
// few (an Overlay) or remote stay on first use alone.
func (v *Vocab) compileAll() {
	for i := range v.forms {
		if v.forms[i].Load() == nil {
			v.forms[i].Store(v.compile(v.src.Entity(v.first + EntityID(i))))
		}
	}
}

// compile builds an entity's compiled form against v.
func (v *Vocab) compile(e *Entity) *compiledEntity {
	c := &compiledEntity{of: e.Keyphrases, ok: true}
	slots := len(e.Keyphrases) // a header per phrase and a slot per word
	for i := range e.Keyphrases {
		slots += len(e.Keyphrases[i].Words)
	}
	c.phrases.IDs = make([]WordID, 0, slots)
	c.phrases.Wts = make([]float64, 0, slots)
	resolve := func(w string) (WordID, float64) {
		id, known := v.ID(w)
		// "not positive" rather than "≤ 0", so that a NaN weight falls
		// through exactly as it does in the string path.
		wt := e.KeywordNPMI[w]
		if !(wt > 0) {
			wt = v.src.WordIDF(w)
		}
		if !known || !(wt > 0) {
			c.ok = false
		}
		return id, wt
	}
	for i := range e.Keyphrases {
		if c.phrases.Append(e.Keyphrases[i].Words, resolve); !c.ok {
			return &compiledEntity{of: e.Keyphrases}
		}
	}
	return c
}
