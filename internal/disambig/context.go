package disambig

import (
	"sync/atomic"

	"aida/internal/kb"
)

// DefaultContextWeight is the blend weight used when a context model does
// not set one: strong enough to overturn a dominant prior when the context
// clearly favors another sense, weak enough that document evidence still
// dominates when the context is silent on a mention.
const DefaultContextWeight = 0.35

// ContextModel is a per-request interest model — the RESLVE-style signal
// for short text, where the coherence graph has too few mentions to vote.
// It carries the content words of request-supplied context keyphrases (a
// user profile, the enclosing page, an editing history) and/or a set of
// interest entities, plus the blend weight. A nil model changes nothing:
// every consumer gates on it, so output without a context is byte-identical
// to builds that predate the field.
//
// A ContextModel is immutable after construction and safe for concurrent
// use: one request's model is shared across the documents of a corpus
// fan-out and across CONF perturbation clones.
type ContextModel struct {
	// Words are the lower-cased content words of the request's context
	// keyphrases (tokenized by the caller).
	Words []string
	// Entities is the request's interest entity set; candidates in it (or
	// linked from it) get entity-affinity mass.
	Entities map[kb.EntityID]bool
	// Weight is the blend weight in (0,1]; 0 means DefaultContextWeight.
	Weight float64

	// index is Words by word id, under the vocabulary of the generation
	// that last asked (see wordsFor).
	index atomic.Pointer[wordIndex]
}

// weight resolves the effective blend weight.
func (cm *ContextModel) weight() float64 {
	if cm.Weight <= 0 {
		return DefaultContextWeight
	}
	return cm.Weight
}

// wordsFor returns the index of the context words under a problem's
// vocabulary, built on first use. The model is shared across a corpus
// fan-out's worker goroutines, and a delta applied mid-request can put two of
// its documents on different generations: word ids are only comparable under
// one vocabulary, so the index is rebuilt when the vocabulary is not the one
// it was built under (racing builders store equal indexes).
func (cm *ContextModel) wordsFor(p *Problem) *wordIndex {
	wi := cm.index.Load()
	if wi == nil || wi.vocab != p.vocab {
		wi = newWordIndex(p.vocab, cm.Words)
		cm.index.Store(wi)
	}
	return wi
}

// scores computes the per-candidate context affinity for one mention, in
// [0,1]: the keyphrase part scores each candidate's keyphrases against the
// context words with the same cover machinery as sim-k (Eq. 3.6) and
// normalizes per mention; the entity part is direct membership in the
// interest set (1.0) or a link into it (0.5). When both signals are
// present they average, so neither can drown the other.
func (cm *ContextModel) scores(p *Problem, m *Mention) []float64 {
	useWords := len(cm.Words) > 0
	useEnts := len(cm.Entities) > 0
	var sim []float64
	if useWords {
		wi := cm.wordsFor(p)
		raw := make([]float64, len(m.Candidates))
		for j := range m.Candidates {
			raw[j], _ = wi.cover(p, &m.Candidates[j])
		}
		sim = normalizeSum(raw)
	}
	out := make([]float64, len(m.Candidates))
	for j := range m.Candidates {
		var aff float64
		if useEnts {
			c := &m.Candidates[j]
			if cm.Entities[c.Entity] {
				aff = 1
			} else {
				for _, in := range c.InLinks {
					if cm.Entities[in] {
						aff = 0.5
						break
					}
				}
			}
		}
		switch {
		case useWords && useEnts:
			out[j] = (sim[j] + aff) / 2
		case useWords:
			out[j] = sim[j]
		default:
			out[j] = aff
		}
	}
	return out
}

// Blend folds the context affinity into a mention's local score vector in
// place: w[j] ← (1−cw)·w[j] + cw·ctx[j], with cw the model's weight. It is
// called by the methods that rank candidates by mention–entity evidence
// (the AIDA family and the prior baseline); coherence-only machinery is
// untouched. Callers must gate on a nil model.
func (cm *ContextModel) Blend(p *Problem, i int, w []float64) {
	m := &p.Mentions[i]
	ctx := cm.scores(p, m)
	cw := cm.weight()
	for j := range w {
		w[j] = (1-cw)*w[j] + cw*ctx[j]
	}
}
