package kb

import (
	"sort"
	"strings"
	"sync"
)

// Overlay is a copy-on-write Store: a base Store plus one applied Delta.
// Reads for untouched entities and rows go straight to the base (no
// copies); added entities, link-touched entities and shadowed dictionary
// rows are served from the overlay's own materialized state. An Overlay
// is immutable after construction — like every Store — so a serving
// System installs one by atomic pointer swap and in-flight documents keep
// reading the generation they started on.
//
// The conformance contract (pinned by internal/kbtest and FuzzDeltaApply):
// an Overlay is indistinguishable through the Store read surface from
// Rebuild(base, delta) — same fingerprint, same candidate bytes, same
// annotations — because shadowed rows are rematerialized through the same
// candidatesFrom path a build uses.
//
// Overlays stack: the base may itself be an Overlay, so repeated
// ApplyDelta calls form a chain. Each layer adds one map lookup to
// shadowed reads, and the chain grows by one per delta for the life of a
// process: Rebuild produces the equivalent flat KB, but nothing swaps it
// into a serving System yet, so compaction is an open problem.
type Overlay struct {
	base  Store
	baseN int

	// added are the delta's new entities (ids baseN, baseN+1, …), with
	// their merged link sets.
	added       []Entity
	addedByName map[string]EntityID
	// touched are copy-on-write snapshots of pre-existing entities whose
	// link sets the delta changed; everything else in them is shared with
	// the base entity.
	touched map[EntityID]*Entity
	// rows are the shadowed dictionary rows: every normalized surface the
	// delta added counts for, rematerialized over the merged counts.
	rows map[string][]Candidate
	// phraseIDF / wordIDF extend the base tables (consulted only when the
	// base lookup yields 0; keys are stored lower-cased).
	phraseIDF map[string]float64
	wordIDF   map[string]float64

	// touchedIDs are the sorted pre-existing entity ids with changed link
	// sets — the scorer-invalidation set of this generation.
	touchedIDs []EntityID

	// vocab is the base's, extended by the delta's words and entities.
	vocab *Vocab

	fp        fingerprintOnce
	namesOnce sync.Once
	names     []string
}

// Compile-time conformance: an Overlay is a full bulk-capable Store.
var (
	_ Store              = (*Overlay)(nil)
	_ BulkCandidateStore = (*Overlay)(nil)
)

// NewOverlay validates the delta against the base and materializes the
// copy-on-write view. The base is never mutated; the delta must not be
// mutated afterwards (its slices are aliased).
func NewOverlay(base Store, d *Delta) (*Overlay, error) {
	if err := d.Validate(base); err != nil {
		return nil, err
	}
	o := &Overlay{
		base:        base,
		baseN:       base.NumEntities(),
		added:       make([]Entity, len(d.Entities)),
		addedByName: make(map[string]EntityID, len(d.Entities)),
		touched:     make(map[EntityID]*Entity),
		rows:        make(map[string][]Candidate),
		phraseIDF:   lowerKeyed(d.PhraseIDF),
		wordIDF:     lowerKeyed(d.WordIDF),
	}
	for i := range d.Entities {
		o.added[i] = d.newEntityValue(i)
		o.addedByName[o.added[i].Name] = o.added[i].ID
	}
	// Link merges. mut returns the overlay-owned copy of an entity,
	// snapshotting a base entity on first touch; merged link slices are
	// always fresh, so shared base state is never written.
	mut := func(id EntityID) *Entity {
		if int(id) >= o.baseN {
			return &o.added[int(id)-o.baseN]
		}
		if e, ok := o.touched[id]; ok {
			return e
		}
		cp := *base.Entity(id)
		o.touched[id] = &cp
		return &cp
	}
	outAdd, inAdd := d.linkAdds()
	for src, dsts := range outAdd {
		e := mut(src)
		e.OutLinks = mergeLinks(e.OutLinks, dsts)
	}
	for dst, srcs := range inAdd {
		e := mut(dst)
		e.InLinks = mergeLinks(e.InLinks, srcs)
	}
	for id := range o.touched {
		o.touchedIDs = append(o.touchedIDs, id)
	}
	sort.Slice(o.touchedIDs, func(i, j int) bool { return o.touchedIDs[i] < o.touchedIDs[j] })
	// Shadowed dictionary rows: merge the base's materialized candidates
	// with the additions and recompute priors through candidatesFrom.
	for key, adds := range d.rowAdds() {
		o.rows[key] = mergeRows(base.Candidates(key), adds)
	}
	o.vocab = base.Vocabulary().extend(o, d)
	return o, nil
}

func lowerKeyed(m map[string]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		// Lower-case keys to match lowerIDF's lookup lowering.
		out[strings.ToLower(k)] = v
	}
	return out
}

// Added returns how many entities this overlay layer adds.
func (o *Overlay) Added() int { return len(o.added) }

// Touched returns the sorted ids of pre-existing entities whose link sets
// this overlay changes — the set whose derived scoring state (profiles,
// memoized pairs) a serving engine must invalidate on apply.
func (o *Overlay) Touched() []EntityID { return o.touchedIDs }

// NumEntities implements Store.
func (o *Overlay) NumEntities() int { return o.baseN + len(o.added) }

// Entity implements Store: added entities from the overlay, link-touched
// entities from their copy-on-write snapshot, everything else straight
// from the base.
func (o *Overlay) Entity(id EntityID) *Entity {
	if int(id) >= o.baseN {
		return &o.added[int(id)-o.baseN]
	}
	if e, ok := o.touched[id]; ok {
		return e
	}
	return o.base.Entity(id)
}

// EntityByName implements Store.
func (o *Overlay) EntityByName(name string) (EntityID, bool) {
	if id, ok := o.base.EntityByName(name); ok {
		return id, ok
	}
	id, ok := o.addedByName[name]
	return id, ok
}

// HasName implements Store (and ner.Lexicon): a surface is known if either
// layer has a row for it, so an entity a delta just added is recognizable
// in the very next request.
func (o *Overlay) HasName(normalized string) bool {
	if _, ok := o.rows[normalized]; ok {
		return true
	}
	return o.base.HasName(normalized)
}

// Candidates implements Store. Shadowed rows carry the merged counts with
// priors recomputed over the full entry set; unshadowed rows are the
// base's shared slices.
func (o *Overlay) Candidates(surface string) []Candidate {
	key := NormalizeName(surface)
	if cands, ok := o.rows[key]; ok {
		return cands
	}
	return o.base.Candidates(key)
}

// CandidatesBulk implements BulkCandidateStore: the base's bulk path (one
// batched fetch per shard for remote stores) does the heavy lifting, then
// shadowed rows are patched in positionally.
func (o *Overlay) CandidatesBulk(surfaces []string) [][]Candidate {
	var out [][]Candidate
	if bulk, ok := o.base.(BulkCandidateStore); ok {
		out = bulk.CandidatesBulk(surfaces)
	} else {
		out = make([][]Candidate, len(surfaces))
		for i, s := range surfaces {
			out[i] = o.base.Candidates(s)
		}
	}
	for i, s := range surfaces {
		if cands, ok := o.rows[NormalizeName(s)]; ok {
			out[i] = cands
		}
	}
	return out
}

// Names implements Store: the base's keys plus any delta-introduced keys,
// sorted. Memoized — the overlay is immutable, and fingerprinting walks
// the list anyway.
func (o *Overlay) Names() []string {
	o.namesOnce.Do(func() {
		base := o.base.Names()
		fresh := make([]string, 0, len(o.rows))
		for key := range o.rows {
			if !o.base.HasName(key) {
				fresh = append(fresh, key)
			}
		}
		o.names = make([]string, 0, len(base)+len(fresh))
		o.names = append(o.names, base...)
		o.names = append(o.names, fresh...)
		sort.Strings(o.names)
	})
	return o.names
}

// PhraseIDF implements Store: base first, delta additions where the base
// has no weight.
func (o *Overlay) PhraseIDF(phrase string) float64 {
	if v := o.base.PhraseIDF(phrase); v != 0 {
		return v
	}
	return lowerIDF(o.phraseIDF, phrase)
}

// WordIDF implements Store: base first, delta additions where the base has
// no weight.
func (o *Overlay) WordIDF(word string) float64 {
	if v := o.base.WordIDF(word); v != 0 {
		return v
	}
	return lowerIDF(o.wordIDF, word)
}

// Vocabulary implements Store.
func (o *Overlay) Vocabulary() *Vocab { return o.vocab }

// NumShards implements Store: the overlay preserves the base's shard
// geometry (added entities fall into shard id % NumShards like any other).
func (o *Overlay) NumShards() int { return o.base.NumShards() }

// Fingerprint implements Store: the canonical content walk over the merged
// view, memoized per overlay. Applying a delta therefore bumps the
// fingerprint exactly when it changes logical content, which is what makes
// stale engine snapshots and remote-fleet responses fail safely.
func (o *Overlay) Fingerprint() uint64 { return o.fp.of(o) }
