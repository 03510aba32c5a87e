package disambig

import (
	"aida/internal/kb"
	"aida/internal/pool"
	"aida/internal/textstat"
)

// RawSimScores exposes the unnormalized keyphrase similarity mass per
// candidate (Eq. 3.6), before the per-mention normalization used for
// ranking. No program scores with it: the benchmark's layer probe times it
// and tests compare it against a reference (ROADMAP item 1a).
func RawSimScores(p *Problem) [][]float64 {
	return simScores(p)
}

// BestPhraseCover returns the best single-keyphrase cover score (Eq. 3.4)
// of a candidate against the document context: 1 means at least one of the
// candidate's keyphrases occurs fully and contiguously. A genuine mention
// of the entity almost always realizes one of its keyphrases verbatim;
// scattered word-level matches never reach a high cover score, which makes
// this the precision gate for keyphrase harvesting (Sec. 5.5.1).
func BestPhraseCover(p *Problem, c *Candidate) float64 {
	_, best := p.index().cover(p, c)
	return best
}

// simScores computes the keyphrase-based mention–entity similarity sim-k
// (Sec. 3.3.4, Eq. 3.6) for every candidate of every mention: the sum over
// the entity's keyphrases of the partial-match cover score Eq. 3.4 against
// the document context, with keyword weights NPMI (entity-specific) falling
// back to collection IDF.
func simScores(p *Problem) [][]float64 {
	wi := p.index()
	out := make([][]float64, len(p.Mentions))
	// Entities repeat across mentions ("Page" twice in a document) and their
	// sim depends only on the document, not the mention. Only candidates
	// scored from the store's compiled form are remembered: for those the
	// entity id is the whole identity.
	total := 0
	for i := range p.Mentions {
		total += len(p.Mentions[i].Candidates)
	}
	seen := make(map[kb.EntityID]float64, total)
	flat := make([]float64, total)
	for i := range p.Mentions {
		m := &p.Mentions[i]
		n := len(m.Candidates)
		var scores []float64
		scores, flat = flat[:n:n], flat[n:]
		for j := range m.Candidates {
			c := &m.Candidates[j]
			ps := wi.compiled(c)
			if ps == nil {
				scores[j], _ = wi.coverLocal(p, c)
				continue
			}
			v, ok := seen[c.Entity]
			if !ok {
				v, _ = wi.ix.Cover(ps)
				seen[c.Entity] = v
			}
			scores[j] = v
		}
		out[i] = scores
	}
	return out
}

// wordIndex is one text's content words by word id — a document's, or a
// request's context keyphrases' — and the one place keyphrases are scored
// against it. Words the vocabulary knows carry its ids; the text's other
// words get ids of their own below textstat.NoWord, which no vocabulary
// issues, so that candidates with features of their own can still match
// them. Immutable once built.
type wordIndex struct {
	vocab *kb.Vocab                  // nil: every word is the text's own
	local map[string]textstat.WordID // the text's words outside the vocabulary
	ix    *textstat.Index
}

func newWordIndex(vocab *kb.Vocab, words []string) *wordIndex {
	wi := &wordIndex{vocab: vocab}
	tokens := make([]textstat.WordID, len(words))
	for i, w := range words {
		id, ok := wi.id(w)
		if !ok {
			if wi.local == nil {
				wi.local = make(map[string]textstat.WordID)
			}
			id = textstat.NoWord - 1 - textstat.WordID(len(wi.local))
			wi.local[w] = id
		}
		tokens[i] = id
	}
	wi.ix = textstat.NewIndex(tokens)
	return wi
}

// id returns the id a word has in this text's index; ok is false for a word
// that is neither in the vocabulary nor in the text.
func (wi *wordIndex) id(w string) (id textstat.WordID, ok bool) {
	if wi.vocab != nil {
		if id, ok = wi.vocab.ID(w); ok {
			return id, true
		}
	}
	id, ok = wi.local[w]
	return id, ok
}

// localPhrases is the scratch a candidate with features of its own is
// compiled into, per text.
var localPhrases = pool.Scratch[textstat.Phrases]{
	New:   func() *textstat.Phrases { return &textstat.Phrases{} },
	Reset: (*textstat.Phrases).Reset,
}

// compiled returns the store's compiled keyphrases of a candidate that is
// one of its untouched entities, nil for any other candidate: a placeholder,
// an enriched entity, one of a hand-built problem.
func (wi *wordIndex) compiled(c *Candidate) *textstat.Phrases {
	if wi.vocab == nil {
		return nil
	}
	return wi.vocab.Phrases(c.Entity, c.Keyphrases)
}

// cover scores a candidate's keyphrases against the text: the sum of their
// cover scores (sim-k, Eq. 3.6) and the best single one (Eq. 3.4).
func (wi *wordIndex) cover(p *Problem, c *Candidate) (sum, best float64) {
	if ps := wi.compiled(c); ps != nil {
		return wi.ix.Cover(ps)
	}
	return wi.coverLocal(p, c)
}

// coverLocal is cover for a candidate with features of its own: its
// keyphrases are compiled here, against the same ids and with p's weights,
// and scored by the same kernel.
func (wi *wordIndex) coverLocal(p *Problem, c *Candidate) (sum, best float64) {
	ps := localPhrases.Get()
	defer localPhrases.Put(ps)
	resolve := func(w string) (textstat.WordID, float64) {
		id, ok := wi.id(w)
		if !ok {
			id = textstat.NoWord
		}
		if npmi, ok := c.KeywordNPMI[w]; ok && npmi > 0 {
			return id, npmi
		}
		return id, p.wordIDF(w)
	}
	for i := range c.Keyphrases {
		ps.Append(c.Keyphrases[i].Words, resolve)
	}
	return wi.ix.Cover(ps)
}

// priorVector extracts the candidates' priors of one mention.
func priorVector(m *Mention) []float64 {
	out := make([]float64, len(m.Candidates))
	for i := range m.Candidates {
		out[i] = m.Candidates[i].Prior
	}
	return out
}

// l1Distance computes Σ|a_i - b_i| over two equal-length vectors; the
// coherence robustness test (Sec. 3.5.2) applies it to the prior and the
// normalized similarity distributions.
func l1Distance(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		d += diff
	}
	return d
}
