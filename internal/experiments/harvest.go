package experiments

import (
	"strings"

	"aida/internal/ner"
	"aida/internal/postag"
	"aida/internal/tokenizer"
)

// Harvest is a name → keyphrase → occurrence-count table mined from a
// document chunk (Sec. 5.5.1): for every occurrence of a tracked name, the
// keyphrases of its sentence are counted. The dissertation counts a window
// of ±5 sentences; evidence in the synthetic news stream is
// sentence-local, so the window here is the occurrence's own sentence.
type Harvest struct {
	// Counts[name][phrase] = co-occurrence count.
	Counts map[string]map[string]int
	// Occurrences[name] = number of name occurrences seen.
	Occurrences map[string]int
	// Docs is the number of documents scanned (the EE collection size of
	// Algorithm 2's balance parameter α).
	Docs int
}

// Harvester mines keyphrases around name occurrences. The zero value is
// ready to use.
type Harvester struct {
	// Lexicon, when set (typically the KB), suppresses occurrences that
	// are embedded in a longer dictionary name: harvesting "Silva" must
	// not fire inside "Ingrid Silva", whose context belongs to a
	// different entity.
	Lexicon ner.Lexicon
	// SentenceFilter, when set, accepts or rejects individual occurrences
	// based on the content words of the occurrence's sentence. The
	// keyphrase enrichment of Sec. 5.5.1 uses it to harvest only
	// sentences carrying verbatim evidence for the disambiguated entity.
	SentenceFilter func(name string, sentenceWords []string) bool
}

// HarvestDocs scans the documents for the tracked names (matched by the
// dictionary normalization rules) and returns the keyphrase counts.
func (h *Harvester) HarvestDocs(docs []string, names []string) *Harvest {
	out := &Harvest{
		Counts:      make(map[string]map[string]int),
		Occurrences: make(map[string]int),
		Docs:        len(docs),
	}
	nameKey := make(map[string]string, len(names))
	maxNameTokens := 1
	for _, n := range names {
		nameKey[tokenizer.Normalize(n)] = n
		if k := len(strings.Fields(n)); k > maxNameTokens {
			maxNameTokens = k
		}
	}
	for _, doc := range docs {
		h.harvestDoc(doc, nameKey, maxNameTokens, out)
	}
	return out
}

func (h *Harvester) harvestDoc(doc string, nameKey map[string]string, maxNameTokens int, out *Harvest) {
	toks := tokenizer.Tokenize(doc)
	if len(toks) == 0 {
		return
	}
	// Keyphrases per sentence, extracted once.
	var tagger postag.Tagger
	tagged := tagger.TagTokens(toks)
	phrasesBySentence := map[int][]string{}
	for _, span := range postag.ExtractKeyphrases(tagged) {
		s := span[0].Sentence
		phrasesBySentence[s] = append(phrasesBySentence[s], postag.PhraseText(span))
	}
	// Content words per sentence, for the occurrence filter.
	var wordsBySentence map[int][]string
	if h.SentenceFilter != nil {
		wordsBySentence = map[int][]string{}
		for _, t := range toks {
			if t.IsPunct() {
				continue
			}
			w := tokenizer.Normalize(t.Text)
			if !tokenizer.IsStopword(w) {
				wordsBySentence[t.Sentence] = append(wordsBySentence[t.Sentence], w)
			}
		}
	}
	// Scan for name occurrences (longest match first).
	for i := 0; i < len(toks); i++ {
		for l := maxNameTokens; l >= 1; l-- {
			if i+l > len(toks) {
				continue
			}
			last := toks[i+l-1]
			if last.Sentence != toks[i].Sentence {
				continue
			}
			surface := doc[toks[i].Start:last.End]
			name, ok := nameKey[tokenizer.Normalize(surface)]
			if !ok {
				continue
			}
			if h.embedded(doc, toks, i, l) {
				break
			}
			if h.SentenceFilter != nil && !h.SentenceFilter(name, wordsBySentence[toks[i].Sentence]) {
				i += l - 1
				break
			}
			out.Occurrences[name]++
			countSentence(name, phrasesBySentence[toks[i].Sentence], surface, out)
			i += l - 1
			break
		}
	}
}

// embedded reports whether the matched span [i, i+l) extends to a longer
// known dictionary name on either side, in which case the occurrence
// belongs to that longer name.
func (h *Harvester) embedded(doc string, toks []tokenizer.Token, i, l int) bool {
	if h.Lexicon == nil {
		return false
	}
	last := toks[i+l-1]
	if i > 0 && toks[i-1].Sentence == toks[i].Sentence && !toks[i-1].IsPunct() {
		if h.Lexicon.HasName(ner.Normalized(doc[toks[i-1].Start:last.End])) {
			return true
		}
	}
	if i+l < len(toks) && toks[i+l].Sentence == last.Sentence && !toks[i+l].IsPunct() {
		if h.Lexicon.HasName(ner.Normalized(doc[toks[i].Start:toks[i+l].End])) {
			return true
		}
	}
	return false
}

// countSentence counts the keyphrases of an occurrence's sentence,
// excluding phrases equal to the name itself.
func countSentence(name string, phrases []string, surface string, out *Harvest) {
	m := out.Counts[name]
	if m == nil {
		m = make(map[string]int)
		out.Counts[name] = m
	}
	for _, p := range phrases {
		if strings.EqualFold(p, surface) || strings.EqualFold(p, name) {
			continue
		}
		m[p]++
	}
}
