// Package live closes the emerging-entity feedback loop of the live KB:
// it accumulates emerging-entity discoveries (emerge.Discovery)
// across documents, graduates the ones with enough independent evidence
// into kb.Delta facts, and persists applied deltas in a replayable journal
// so a restarted server recovers every graduated entity.
//
// The package sits between internal/emerge (which finds out-of-KB
// entities per document) and aida.System.ApplyDelta (which installs KB
// generations): a Graduator turns repeated per-document observations into
// one Delta, a Journal makes applies durable, and a Loop wires both to a
// serving System on a timer.
package live

import (
	"sort"
	"sync"

	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
	"aida/internal/textstat"
)

// Graduation gates: how much independent evidence an emerging surface needs
// before it becomes a KB entity.
const (
	// minOccurrences is the number of emerging observations a surface needs
	// across documents before it graduates: one document must never mint
	// an entity.
	minOccurrences = 3
	// minKeyphrases is the minimum harvested-model size: a placeholder with
	// fewer keyphrases has too little context to be a useful repository
	// entry.
	minKeyphrases = 3
	// maxPending bounds the tracked surface set. At the bound, observations
	// of unseen surfaces are dropped, so memory stays bounded under
	// adversarial input.
	maxPending = 1024
	// graduatedLabel is the domain and the one type of every graduated
	// entity, so downstream consumers can tell graduated entries from
	// curated ones.
	graduatedLabel = "emerging"
)

// candidateEntity is one surface's accumulated evidence: how many
// documents declared it emerging, and the richest placeholder model seen.
type candidateEntity struct {
	occurrences int
	model       disambig.Candidate
}

// Graduator accumulates emerging-entity observations across documents and
// graduates surfaces that cross the evidence thresholds into a kb.Delta.
// All methods are safe for concurrent use.
type Graduator struct {
	mu      sync.Mutex
	pending map[string]*candidateEntity
}

// NewGraduator returns an empty graduator.
func NewGraduator() *Graduator {
	return &Graduator{pending: make(map[string]*candidateEntity)}
}

// Pending reports how many surfaces are accumulating evidence.
func (g *Graduator) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// Observe folds one discovery result into the pending evidence: every
// mention declared emerging whose placeholder model carries at least
// minKeyphrases keyphrases counts as one occurrence of its surface.
// Confidence does not gate an observation: emerging placeholders win with
// modest confidence by construction. Mentions without a harvested model are
// skipped — an emerging verdict with no global evidence is not graduation
// material.
func (g *Graduator) Observe(d *emerge.Discovery) {
	if d == nil || d.Output == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, r := range d.Output.Results {
		if i >= len(d.Emerging) || !d.Emerging[i] {
			continue
		}
		model, ok := d.Models[r.Surface]
		if !ok || model.Entity != kb.NoEntity || len(model.Keyphrases) < minKeyphrases {
			continue
		}
		ce := g.pending[r.Surface]
		if ce == nil {
			if len(g.pending) >= maxPending {
				continue
			}
			ce = &candidateEntity{}
			g.pending[r.Surface] = ce
		}
		ce.occurrences++
		// Keep the richest model seen: later chunks may harvest more
		// evidence for the same unknown entity.
		if len(model.Keyphrases) >= len(ce.model.Keyphrases) {
			ce.model = model
		}
	}
}

// Graduate drains every surface whose occurrence count reached
// minOccurrences and returns them as one kb.Delta against base (nil when
// nothing is ready). Graduated surfaces leave the pending set whether or
// not the caller applies the delta.
//
// The delta carries precomputed facts, consistent with the base's frozen
// statistics: keyphrase and keyword IDFs reuse the base weight where one
// exists and otherwise get the minimum-evidence weight IDF(N', 1) — the
// weight of a term seen in one pseudo-document of the grown repository —
// recorded in the delta's IDF extensions so overlay and rebuild agree.
func (g *Graduator) Graduate(base kb.Store) *kb.Delta {
	ready := g.takeReady()
	if len(ready) == 0 {
		return nil
	}
	baseN := base.NumEntities()
	d := &kb.Delta{BaseEntities: baseN}
	// The IDF weight for vocabulary the repository has never seen: one
	// occurrence in a repository grown by the graduating batch.
	newIDF := textstat.IDF(float64(baseN+len(ready)), 1)
	taken := make(map[string]bool, len(ready))
	for _, r := range ready {
		name := r.surface
		if _, dup := base.EntityByName(name); dup || taken[name] {
			name += " (emerging)"
		}
		if _, dup := base.EntityByName(name); dup || taken[name] {
			continue // even the suffixed name collides; keep the KB consistent and drop
		}
		taken[name] = true
		id := kb.EntityID(d.BaseEntities + len(d.Entities))
		ne := kb.NewEntity{
			Name:        name,
			Domain:      graduatedLabel,
			Types:       []string{graduatedLabel},
			KeywordNPMI: make(map[string]float64, len(r.model.KeywordNPMI)),
		}
		for w, v := range r.model.KeywordNPMI {
			ne.KeywordNPMI[w] = v
		}
		for _, kp := range r.model.Keyphrases {
			idf := base.PhraseIDF(kp.Phrase)
			if idf == 0 {
				idf = newIDF
				if d.PhraseIDF == nil {
					d.PhraseIDF = make(map[string]float64)
				}
				d.PhraseIDF[kp.Phrase] = newIDF
			}
			kp.IDF = idf
			ne.Keyphrases = append(ne.Keyphrases, kp)
			for _, w := range kp.Words {
				if base.WordIDF(w) == 0 {
					if d.WordIDF == nil {
						d.WordIDF = make(map[string]float64)
					}
					d.WordIDF[w] = newIDF
				}
			}
		}
		d.Entities = append(d.Entities, ne)
		// The observed surface becomes a dictionary row weighted by the
		// evidence count (the canonical name additionally carries the
		// implicit count-1 row every new entity gets).
		d.Rows = append(d.Rows, kb.RowAddition{Surface: r.surface, Entity: id, Count: r.occurrences})
	}
	if d.IsEmpty() {
		return nil
	}
	return d
}

type readySurface struct {
	surface     string
	occurrences int
	model       disambig.Candidate
}

// takeReady removes and returns the graduation-ready surfaces, sorted for
// deterministic delta construction.
func (g *Graduator) takeReady() []readySurface {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ready []readySurface
	for s, ce := range g.pending {
		if ce.occurrences >= minOccurrences {
			ready = append(ready, readySurface{surface: s, occurrences: ce.occurrences, model: ce.model})
			delete(g.pending, s)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].surface < ready[j].surface })
	return ready
}
