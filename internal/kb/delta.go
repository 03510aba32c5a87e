package kb

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Live-update deltas (grounded by "Occurrence Statistics of Entities,
// Relations and Types on the Web"): a Delta is a batch of new facts —
// entities with their keyphrase features, dictionary-row count
// additions, link edges, and IDF entries for vocabulary the base has never
// seen — that can be applied to any serving Store without a rebuild. The
// two consumers are NewOverlay (copy-on-write view, the serving path) and
// Rebuild (a fresh *KB with the facts baked in, the conformance baseline);
// the contract pinned by the conformance suite is that both yield the same
// fingerprint and byte-identical annotations.
//
// A Delta carries precomputed feature weights as facts rather than
// re-deriving the global statistics: re-running the Builder would change N
// and with it every IDF/NPMI weight in the repository, turning a
// three-entity update into a full invalidation. Incremental maintenance
// instead freezes the existing statistics and extends the tables only
// where the base has no value.

// Delta is one batch of knowledge-base additions. The JSON tags define the
// wire form of POST /v1/admin/kb/delta; the gob form is what the delta
// journal persists. A Delta is immutable once applied — the overlay aliases
// its slices.
type Delta struct {
	// BaseEntities is NumEntities() of the store the delta was computed
	// against. Validation rejects a mismatch, which makes journal replay
	// chain-safe: each delta only applies on top of the generation it was
	// built from. New entities get ids BaseEntities, BaseEntities+1, … in
	// Entities order, so Rows and Links may reference them.
	BaseEntities int `json:"base_entities"`
	// Entities are the new entities, appended in order.
	Entities []NewEntity `json:"entities,omitempty"`
	// Rows are dictionary-row count additions (existing rows accumulate,
	// unknown surface/entity pairs are created).
	Rows []RowAddition `json:"rows,omitempty"`
	// Links are directed link edges; duplicates of existing edges are
	// no-ops (link sets stay deduplicated).
	Links []LinkAddition `json:"links,omitempty"`
	// PhraseIDF and WordIDF extend the global IDF tables for vocabulary
	// unknown to the base (lookups yielding 0). Keys are matched
	// lower-cased; entries whose base lookup is non-zero are rejected —
	// a delta must never rewrite existing global statistics.
	PhraseIDF map[string]float64 `json:"phrase_idf,omitempty"`
	WordIDF   map[string]float64 `json:"word_idf,omitempty"`
}

// NewEntity is one entity added by a delta, with its feature weights
// precomputed (MI, IDF, NPMI) — the delta carries facts, not raw text. Its
// canonical name also becomes a dictionary row with count 1, mirroring
// Builder.AddEntity.
type NewEntity struct {
	Name       string      `json:"name"`
	Domain     string      `json:"domain,omitempty"`
	Types      []string    `json:"types,omitempty"`
	Keyphrases []Keyphrase `json:"keyphrases,omitempty"`
	// KeywordNPMI holds the entity-specific keyword weights (Eq. 3.1
	// scale).
	KeywordNPMI map[string]float64 `json:"keyword_npmi,omitempty"`
}

// RowAddition adds count anchor occurrences to the dictionary row
// surface → entity. Priors of every candidate of the surface are
// recomputed from the merged counts (through candidatesFrom, so they are
// byte-identical to a full rebuild).
type RowAddition struct {
	Surface string   `json:"surface"`
	Entity  EntityID `json:"entity"`
	Count   int      `json:"count"`
}

// LinkAddition is one directed link edge src → dst.
type LinkAddition struct {
	Src EntityID `json:"src"`
	Dst EntityID `json:"dst"`
}

// Validate checks the delta against the base store it is about to be
// applied to: the generation must match, new names must be absent from the
// base and unique, row and link references must be in range (including the
// delta's own new entities), and IDF entries must cover only vocabulary
// the base does not weight.
func (d *Delta) Validate(base Store) error {
	if got := base.NumEntities(); d.BaseEntities != got {
		return fmt.Errorf("kb: delta built against %d entities, store has %d", d.BaseEntities, got)
	}
	total := EntityID(d.BaseEntities + len(d.Entities))
	seen := make(map[string]bool, len(d.Entities))
	for i := range d.Entities {
		ne := &d.Entities[i]
		if ne.Name == "" {
			return fmt.Errorf("kb: delta entity %d has no name", i)
		}
		if _, dup := base.EntityByName(ne.Name); dup {
			return fmt.Errorf("kb: delta entity %q already exists in the base", ne.Name)
		}
		if seen[ne.Name] {
			return fmt.Errorf("kb: delta entity %q appears twice", ne.Name)
		}
		seen[ne.Name] = true
	}
	for i, r := range d.Rows {
		if strings.TrimSpace(NormalizeName(r.Surface)) == "" {
			return fmt.Errorf("kb: delta row %d has an empty surface", i)
		}
		if r.Count <= 0 {
			return fmt.Errorf("kb: delta row %d (%q) has non-positive count %d", i, r.Surface, r.Count)
		}
		if r.Entity < 0 || r.Entity >= total {
			return fmt.Errorf("kb: delta row %d (%q) references entity %d out of range [0,%d)", i, r.Surface, r.Entity, total)
		}
	}
	for i, l := range d.Links {
		if l.Src == l.Dst {
			return fmt.Errorf("kb: delta link %d is a self-link (%d)", i, l.Src)
		}
		if l.Src < 0 || l.Src >= total || l.Dst < 0 || l.Dst >= total {
			return fmt.Errorf("kb: delta link %d (%d→%d) out of range [0,%d)", i, l.Src, l.Dst, total)
		}
	}
	for p, v := range d.PhraseIDF {
		if p == "" || v <= 0 {
			return fmt.Errorf("kb: delta phrase IDF entry %q=%g is not a positive weight", p, v)
		}
		if base.PhraseIDF(p) != 0 {
			return fmt.Errorf("kb: delta phrase IDF entry %q would rewrite an existing base weight", p)
		}
	}
	for w, v := range d.WordIDF {
		if w == "" || v <= 0 {
			return fmt.Errorf("kb: delta word IDF entry %q=%g is not a positive weight", w, v)
		}
		if base.WordIDF(w) != 0 {
			return fmt.Errorf("kb: delta word IDF entry %q would rewrite an existing base weight", w)
		}
	}
	return nil
}

// newEntityValue materializes the Entity struct of delta entity i (links
// still empty; the caller merges those).
func (d *Delta) newEntityValue(i int) Entity {
	ne := &d.Entities[i]
	return Entity{
		ID:          EntityID(d.BaseEntities + i),
		Name:        ne.Name,
		Domain:      ne.Domain,
		Types:       slices.Clone(ne.Types),
		Keyphrases:  slices.Clone(ne.Keyphrases),
		KeywordNPMI: maps.Clone(ne.KeywordNPMI),
	}
}

// linkAdds groups the delta's link additions by endpoint: out-edges by
// source and in-edges by destination.
func (d *Delta) linkAdds() (out, in map[EntityID][]EntityID) {
	out = make(map[EntityID][]EntityID)
	in = make(map[EntityID][]EntityID)
	for _, l := range d.Links {
		out[l.Src] = append(out[l.Src], l.Dst)
		in[l.Dst] = append(in[l.Dst], l.Src)
	}
	return out, in
}

// rowAdds folds the delta's dictionary additions — explicit rows plus the
// implicit count-1 canonical-name row of every new entity (mirroring
// Builder.AddEntity) — into normalized-surface → per-entity count form.
func (d *Delta) rowAdds() map[string]map[EntityID]int {
	adds := make(map[string]map[EntityID]int, len(d.Rows)+len(d.Entities))
	bump := func(surface string, e EntityID, count int) {
		key := NormalizeName(surface)
		m := adds[key]
		if m == nil {
			m = make(map[EntityID]int)
			adds[key] = m
		}
		m[e] += count
	}
	for i := range d.Entities {
		bump(d.Entities[i].Name, EntityID(d.BaseEntities+i), 1)
	}
	for _, r := range d.Rows {
		bump(r.Surface, r.Entity, r.Count)
	}
	return adds
}

// mergeLinks returns the deduplicated sorted union of an existing link set
// and additions, never mutating the existing slice (it may be shared with
// a live base entity).
func mergeLinks(existing, adds []EntityID) []EntityID {
	merged := make([]EntityID, 0, len(existing)+len(adds))
	merged = append(merged, existing...)
	merged = append(merged, adds...)
	return dedupIDs(merged)
}

// mergeRows folds per-entity count additions into an existing candidate
// row (from the base's read surface) and rematerializes the candidates
// through candidatesFrom — the same entry order (ascending entity id) and
// the same float divisions as a full build, so the priors are
// byte-identical to Rebuild's.
func mergeRows(existing []Candidate, adds map[EntityID]int) []Candidate {
	merged := make(map[EntityID]int, len(existing)+len(adds))
	for _, c := range existing {
		merged[c.Entity] = c.Count
	}
	for e, c := range adds {
		merged[e] += c
	}
	entries := make([]nameEntry, 0, len(merged))
	for e, c := range merged {
		entries = append(entries, nameEntry{Entity: e, Count: c})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Entity < entries[j].Entity })
	return candidatesFrom(entries)
}

// Rebuild returns a fresh *KB with the delta's facts baked in, as if the
// base had been built with them from the start: entities appended, link
// sets re-merged, dictionary rows merged and priors rematerialized, IDF
// tables extended where the base had no weight. The base is never mutated
// (untouched entities and rows are shared). Rebuild is the conformance
// baseline for NewOverlay: same fingerprint, byte-identical annotations.
func Rebuild(k *KB, d *Delta) (*KB, error) {
	if err := d.Validate(k); err != nil {
		return nil, err
	}
	baseN := len(k.entities)
	nk := &KB{
		entities:  make([]Entity, baseN+len(d.Entities)),
		byName:    maps.Clone(k.byName),
		dict:      maps.Clone(k.dict),
		phraseIDF: maps.Clone(k.phraseIDF),
		wordIDF:   maps.Clone(k.wordIDF),
	}
	copy(nk.entities, k.entities)
	for i := range d.Entities {
		e := d.newEntityValue(i)
		nk.entities[e.ID] = e
		nk.byName[e.Name] = e.ID
	}
	outAdd, inAdd := d.linkAdds()
	for src, dsts := range outAdd {
		e := &nk.entities[src]
		e.OutLinks = mergeLinks(e.OutLinks, dsts)
	}
	for dst, srcs := range inAdd {
		e := &nk.entities[dst]
		e.InLinks = mergeLinks(e.InLinks, srcs)
	}
	for key, adds := range d.rowAdds() {
		merged := make(map[EntityID]int, len(nk.dict[key])+len(adds))
		for _, en := range nk.dict[key] {
			merged[en.Entity] = en.Count
		}
		for e, c := range adds {
			merged[e] += c
		}
		entries := make([]nameEntry, 0, len(merged))
		for e, c := range merged {
			entries = append(entries, nameEntry{Entity: e, Count: c})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Entity < entries[j].Entity })
		nk.dict[key] = entries
	}
	// A delta IDF entry takes effect wherever the base lookup yields 0:
	// overwrite stored zeros too, so the rebuilt table agrees with the
	// overlay's base-then-delta lookup chain bit for bit.
	for p, v := range d.PhraseIDF {
		lp := strings.ToLower(p)
		if nk.phraseIDF[lp] == 0 {
			nk.phraseIDF[lp] = v
		}
	}
	for w, v := range d.WordIDF {
		lw := strings.ToLower(w)
		if nk.wordIDF[lw] == 0 {
			nk.wordIDF[lw] = v
		}
	}
	return nk.finish(), nil
}
