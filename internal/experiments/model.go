package experiments

import (
	"math"
	"sort"

	"aida/internal/disambig"
	"aida/internal/kb"
)

// EE keyphrase model limits (Algorithm 2). maxEEKeyphrases caps the
// placeholder's keyphrase set, keeping popular names from drowning the
// graph: the dissertation keeps 3 000 phrases against a 3M-entity KB
// (Sec. 5.7.2), and the synthetic worlds' equivalent is 25, so only the
// best-associated phrases fuel a placeholder. minPhraseCount drops phrases
// the chunk shows fewer times.
const (
	maxEEKeyphrases int = 25
	minPhraseCount  int = 2
)

// BuildEEModel constructs the placeholder candidate for an ambiguous name
// by model difference (Sec. 5.5.2): the global keyphrase model of the name,
// harvested from a news chunk, minus the in-KB model of all candidate
// entities for the name. The remaining phrases — weighted by their adjusted
// counts — describe the entity that is NOT in the knowledge base.
//
// The dissertation subtracts balanced co-occurrence counts (d = α(b−c));
// its KB-side counts come from Wikipedia keyphrase statistics that have no
// equivalent here, so the subtraction is exact set difference: any phrase
// carried by a candidate entity (including keyphrases harvested for
// existing entities per Sec. 5.5.1 — pass enriched candidates for that) is
// removed from the placeholder model. This preserves the mechanism that
// matters: known evidence can never count for the unknown entity.
//
// kbSize is the number of entities in the knowledge base, the KB collection
// size of the balance parameter α.
func BuildEEModel(name string, hv *Harvest, kbCands []disambig.Candidate, kbSize int) disambig.Candidate {
	counts := hv.Counts[name]
	// Balance parameter α = KB collection size / EE collection size.
	alpha := 1.0
	if hv.Docs > 0 && kbSize > 0 {
		alpha = float64(kbSize) / float64(hv.Docs)
	}
	// The in-KB model: every phrase any candidate entity carries, indexed
	// by word for overlap lookups. Subtraction matches on word overlap
	// rather than exact strings because extraction spans vary in real
	// prose ("rural county town" must be claimed by the KB phrase
	// "rural county").
	kbByWord := map[string][][]string{}
	for i := range kbCands {
		for _, kp := range kbCands[i].Keyphrases {
			words := dedupWords(kp.Words)
			for _, w := range words {
				kbByWord[w] = append(kbByWord[w], words)
			}
		}
	}
	inKB := func(phrase string) bool {
		words := dedupWords(kb.PhraseWords(phrase))
		if len(words) == 0 {
			return true
		}
		for _, w := range words {
			for _, cand := range kbByWord[w] {
				if wordJaccard(words, cand) >= 0.5 {
					return true
				}
			}
		}
		return false
	}
	// Phrase IDF over the harvest collection (Algorithm 2 step 5): a
	// phrase co-occurring with many different names is generic news
	// vocabulary, not evidence for this name's unknown entity.
	nameDF := map[string]int{}
	for _, perName := range hv.Counts {
		for p := range perName {
			nameDF[normPhrase(p)]++
		}
	}
	numNames := len(hv.Counts)
	type weighted struct {
		phrase string
		d      float64
	}
	var ws []weighted
	var maxD float64
	for p, b := range counts {
		if b < minPhraseCount || inKB(p) {
			continue
		}
		idf := math.Log2(1 + float64(numNames)/float64(nameDF[normPhrase(p)]))
		d := alpha * float64(b) * idf
		if d <= 0 {
			continue
		}
		ws = append(ws, weighted{phrase: p, d: d})
		if d > maxD {
			maxD = d
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].d != ws[j].d {
			return ws[i].d > ws[j].d
		}
		return ws[i].phrase < ws[j].phrase
	})
	if len(ws) > maxEEKeyphrases {
		ws = ws[:maxEEKeyphrases]
	}
	// Word-level name document frequencies, for keyword weights: a word
	// co-occurring with most names (generic news vocabulary) must not
	// count as placeholder evidence.
	wordNameDF := map[string]int{}
	for _, perName := range hv.Counts {
		seen := map[string]bool{}
		for p := range perName {
			for _, word := range kb.PhraseWords(p) {
				if !seen[word] {
					seen[word] = true
					wordNameDF[word]++
				}
			}
		}
	}
	maxWordIDF := math.Log2(1 + float64(numNames))
	cand := disambig.Candidate{
		Entity:      kb.NoEntity,
		Label:       name + "_EE",
		KeywordNPMI: make(map[string]float64),
		// γ_EE (Sec. 5.6) balances placeholder edges against KB-entity
		// edges. The dissertation tunes it on withheld data (0.04–0.06 for
		// its raw news-count weights); this implementation normalizes EE
		// phrase weights to the KB scale, so the neutral scale is 1.
		// Callers tuning γ_EE set EdgeScale on their copies.
		EdgeScale: 1,
	}
	for _, w := range ws {
		mi := w.d / maxD
		words := kb.PhraseWords(w.phrase)
		cand.Keyphrases = append(cand.Keyphrases, kb.Keyphrase{
			Phrase: w.phrase,
			Words:  words,
			MI:     mi,
		})
		for _, word := range words {
			wIDF := math.Log2(1+float64(numNames)/float64(wordNameDF[word])) / maxWordIDF
			if v := mi * wIDF; v > cand.KeywordNPMI[word] {
				cand.KeywordNPMI[word] = v
			}
		}
	}
	return cand
}

func normPhrase(p string) string {
	words := kb.PhraseWords(p)
	out := ""
	for i, w := range words {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// dedupWords returns the sorted distinct words of a phrase.
func dedupWords(words []string) []string {
	out := append([]string(nil), words...)
	sort.Strings(out)
	j := 0
	for i, w := range out {
		if i == 0 || w != out[j-1] {
			out[j] = w
			j++
		}
	}
	return out[:j]
}

// wordJaccard computes the Jaccard similarity of two sorted word sets.
func wordJaccard(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Enricher accumulates harvested keyphrases for existing KB entities from
// high-confidence disambiguations (Sec. 5.5.1) and injects them into future
// problems, adapting the entity representation to the corpus.
type Enricher struct {
	// extra[e] are the harvested keyphrases (deduplicated).
	extra map[kb.EntityID][]kb.Keyphrase
	seen  map[kb.EntityID]map[string]bool
}

// maxPerEntity caps the harvested keyphrase set per entity.
const maxPerEntity = 200

// NewEnricher returns an empty enricher.
func NewEnricher() *Enricher {
	return &Enricher{
		extra: make(map[kb.EntityID][]kb.Keyphrase),
		seen:  make(map[kb.EntityID]map[string]bool),
	}
}

// Add records harvested phrases for an entity; weights are normalized
// counts relative to the strongest phrase in the batch.
func (e *Enricher) Add(id kb.EntityID, phrases map[string]int) {
	if len(phrases) == 0 {
		return
	}
	maxC := 0
	for _, c := range phrases {
		if c > maxC {
			maxC = c
		}
	}
	s := e.seen[id]
	if s == nil {
		s = make(map[string]bool)
		e.seen[id] = s
	}
	type pc struct {
		p string
		c int
	}
	var ordered []pc
	for p, c := range phrases {
		ordered = append(ordered, pc{p, c})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].c != ordered[j].c {
			return ordered[i].c > ordered[j].c
		}
		return ordered[i].p < ordered[j].p
	})
	for _, x := range ordered {
		if len(e.extra[id]) >= maxPerEntity {
			break
		}
		key := normPhrase(x.p)
		if key == "" || s[key] {
			continue
		}
		s[key] = true
		e.extra[id] = append(e.extra[id], kb.Keyphrase{
			Phrase: x.p,
			Words:  kb.PhraseWords(x.p),
			MI:     float64(x.c) / float64(maxC),
		})
	}
}

// HarvestContribution is the outcome of harvesting one document for its
// high-confidence disambiguations, not yet folded into an Enricher: the
// per-name keyphrase counts and the entity each name resolved to. Keeping
// collection separate from accumulation lets documents be harvested by
// parallel workers while Enricher.Add runs serially in document order, so
// the enriched state is identical to a sequential pass.
type HarvestContribution struct {
	Names    []string // sorted high-confidence surfaces with counts
	Entities map[string]kb.EntityID
	Harvest  *Harvest
}

// CollectHighConfidence mines keyphrases around the mentions that a NED run
// resolved with confidence ≥ threshold, returning the contribution without
// mutating any enricher. Nil means the document had no high-confidence
// in-KB mention.
func CollectHighConfidence(h *Harvester, docText string, out *disambig.Output, conf []float64, threshold float64) *HarvestContribution {
	// Group high-confidence mentions by surface, then harvest once.
	bySurface := map[string]kb.EntityID{}
	for i, r := range out.Results {
		if r.Entity == kb.NoEntity || conf[i] < threshold {
			continue
		}
		bySurface[r.Surface] = r.Entity
	}
	if len(bySurface) == 0 {
		return nil
	}
	names := make([]string, 0, len(bySurface))
	for s := range bySurface {
		names = append(names, s)
	}
	sort.Strings(names)
	return &HarvestContribution{
		Names:    names,
		Entities: bySurface,
		Harvest:  h.HarvestDocs([]string{docText}, names),
	}
}

// Apply folds a contribution into the enricher.
func (e *Enricher) Apply(c *HarvestContribution) {
	if c == nil {
		return
	}
	for _, name := range c.Names {
		if counts := c.Harvest.Counts[name]; len(counts) > 0 {
			e.Add(c.Entities[name], counts)
		}
	}
}

// Enrich appends the harvested keyphrases to matching candidates of the
// problem. Candidate structs are copied, so the KB stays untouched.
func (e *Enricher) Enrich(p *disambig.Problem) {
	for i := range p.Mentions {
		e.EnrichCandidates(p.Mentions[i].Candidates)
	}
}

// EnrichCandidates appends the harvested keyphrases to the matching
// candidates in place.
func (e *Enricher) EnrichCandidates(cands []disambig.Candidate) {
	for j := range cands {
		c := &cands[j]
		if c.Entity == kb.NoEntity {
			continue
		}
		if extra := e.extra[c.Entity]; len(extra) > 0 {
			merged := make([]kb.Keyphrase, 0, len(c.Keyphrases)+len(extra))
			merged = append(merged, c.Keyphrases...)
			merged = append(merged, extra...)
			c.Keyphrases = merged
		}
	}
}

// Size returns the number of entities with harvested phrases.
func (e *Enricher) Size() int { return len(e.extra) }
