// Package postag implements a lightweight part-of-speech tagger and the
// part-of-speech keyphrase patterns of the dissertation's Appendix A.
//
// The dissertation uses the Stanford POS tagger to extract keyphrase
// candidates — proper-noun sequences and "technical terms" in the sense of
// Justeson & Katz [JK95] — from sentences surrounding high-confidence
// mentions (Sec. 5.5.1). This package provides an equivalent, dependency-free
// tagger: a closed-class lexicon plus suffix and shape rules, which is ample
// for the pattern extraction the pipeline needs.
package postag

import (
	"strings"

	"aida/internal/tokenizer"
)

// Tag is a coarse part-of-speech tag.
type Tag int

// Coarse tags. The keyphrase patterns only distinguish nouns, proper nouns,
// adjectives and the preposition "of"; everything else is treated as a
// boundary.
const (
	Noun Tag = iota
	ProperNoun
	Adjective
	Verb
	Adverb
	Determiner
	Preposition
	Pronoun
	Conjunction
	Number
	Punctuation
	Other
)

var tagNames = [...]string{
	"NN", "NNP", "JJ", "VB", "RB", "DT", "IN", "PRP", "CC", "CD", "PUNCT", "X",
}

// String returns the Penn-Treebank-style shorthand of the tag.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return "X"
}

// Tagged is a token together with its assigned tag.
type Tagged struct {
	tokenizer.Token
	Tag Tag
}

// closed-class word lexicon (lower-cased).
var lexicon = map[string]Tag{
	// determiners
	"a": Determiner, "an": Determiner, "the": Determiner, "this": Determiner,
	"that": Determiner, "these": Determiner, "those": Determiner,
	"his": Determiner, "her": Determiner, "its": Determiner, "their": Determiner,
	"some": Determiner, "any": Determiner, "each": Determiner, "every": Determiner,
	// prepositions / subordinating conjunctions
	"of": Preposition, "in": Preposition, "on": Preposition, "at": Preposition,
	"by": Preposition, "for": Preposition, "with": Preposition, "from": Preposition,
	"to": Preposition, "into": Preposition, "about": Preposition,
	"against": Preposition, "between": Preposition, "during": Preposition,
	"after": Preposition, "before": Preposition, "under": Preposition,
	"over": Preposition, "near": Preposition,
	// pronouns
	"i": Pronoun, "you": Pronoun, "he": Pronoun, "she": Pronoun, "it": Pronoun,
	"we": Pronoun, "they": Pronoun, "him": Pronoun, "them": Pronoun,
	"who": Pronoun, "which": Pronoun, "whom": Pronoun,
	// conjunctions
	"and": Conjunction, "or": Conjunction, "but": Conjunction, "nor": Conjunction,
	// common verbs (auxiliaries and news verbs)
	"is": Verb, "are": Verb, "was": Verb, "were": Verb, "be": Verb, "been": Verb,
	"being": Verb, "has": Verb, "have": Verb, "had": Verb, "do": Verb,
	"does": Verb, "did": Verb, "will": Verb, "would": Verb, "can": Verb,
	"could": Verb, "should": Verb, "may": Verb, "might": Verb, "must": Verb,
	"said": Verb, "says": Verb, "say": Verb, "made": Verb, "make": Verb,
	"won": Verb, "lost": Verb, "played": Verb, "plays": Verb, "play": Verb,
	"performed": Verb, "recorded": Verb, "released": Verb, "wrote": Verb,
	"written": Verb, "announced": Verb, "revealed": Verb, "signed": Verb,
	"beat": Verb, "scored": Verb, "met": Verb, "visited": Verb, "founded": Verb,
	// adverbs
	"very": Adverb, "also": Adverb, "not": Adverb, "never": Adverb,
	"now": Adverb, "then": Adverb, "here": Adverb, "there": Adverb,
	"again": Adverb, "still": Adverb, "already": Adverb,
	// frequent adjectives whose suffixes are uninformative
	"new": Adjective, "old": Adjective, "good": Adjective, "big": Adjective,
	"high": Adjective, "low": Adjective, "late": Adjective, "early": Adjective,
	"former": Adjective, "chief": Adjective, "top": Adjective,
}

// adjectiveSuffixes trigger the Adjective tag for open-class words.
var adjectiveSuffixes = []string{"al", "ous", "ive", "able", "ible", "ish", "ic", "ian", "ese", "ful", "less"}

// verbSuffixes trigger the Verb tag for open-class lower-case words.
var verbSuffixes = []string{"ing", "ize", "ise", "ated", "ates"}

// adverbSuffix marks adverbs.
const adverbSuffix = "ly"

// Tagger assigns coarse POS tags from the closed-class lexicon and the
// suffix and shape rules. The zero value is ready to use.
type Tagger struct{}

// Tag tags a single token given whether it starts a sentence.
func (tg *Tagger) tagOne(tok tokenizer.Token, sentenceStart bool) Tag {
	text := tok.Text
	lower := strings.ToLower(text)
	if tok.IsPunct() {
		return Punctuation
	}
	if tok.IsNumeric() {
		return Number
	}
	if t, ok := lexicon[lower]; ok {
		return t
	}
	switch tokenizer.TokenShape(text) {
	case tokenizer.ShapeUpper:
		return ProperNoun // acronyms: "NATO", "UN"
	case tokenizer.ShapeCap, tokenizer.ShapeMixed:
		if !sentenceStart {
			return ProperNoun
		}
		// Sentence-initial capitalized unknown words are usually proper
		// nouns in news-wire ("Dylan released ..."), unless they carry a
		// clear non-noun suffix.
		if hasSuffix(lower, verbSuffixes) {
			return Verb
		}
		return ProperNoun
	}
	if strings.HasSuffix(lower, adverbSuffix) && len(lower) > 4 {
		return Adverb
	}
	if hasSuffix(lower, adjectiveSuffixes) {
		return Adjective
	}
	if hasSuffix(lower, verbSuffixes) {
		return Verb
	}
	if strings.HasSuffix(lower, "ed") && len(lower) >= 4 {
		return Verb
	}
	return Noun
}

func hasSuffix(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) && len(s) > len(suf)+1 {
			return true
		}
	}
	return false
}

// TagTokens tags a token slice (as produced by tokenizer.Tokenize).
func (tg *Tagger) TagTokens(tokens []tokenizer.Token) []Tagged {
	out := make([]Tagged, len(tokens))
	prevSentence := -1
	for i, tok := range tokens {
		start := tok.Sentence != prevSentence
		out[i] = Tagged{Token: tok, Tag: tg.tagOne(tok, start)}
		prevSentence = tok.Sentence
	}
	return out
}

// Keyphrase extraction patterns (Appendix A).
//
// Two pattern families are extracted, mirroring the dissertation:
//
//   - proper-noun sequences: NNP+ (optionally joined by "of": "Bank of
//     England"), capturing names of people, organizations and places;
//   - technical terms in the Justeson & Katz sense: (JJ|NN)* NN, e.g.
//     "surveillance program", "hard rock", "search engine".
//
// Single stopword-only or single-determiner phrases are never produced.

// ExtractKeyphrases returns the keyphrase candidate token spans in tagged,
// as slices of the underlying tokens.
func ExtractKeyphrases(tagged []Tagged) [][]Tagged {
	var out [][]Tagged
	i := 0
	for i < len(tagged) {
		t := tagged[i]
		switch t.Tag {
		case ProperNoun:
			j := i + 1
			for j < len(tagged) {
				if tagged[j].Tag == ProperNoun && tagged[j].Sentence == t.Sentence {
					j++
					continue
				}
				// allow one "of" joining two proper noun groups
				if tagged[j].Tag == Preposition && strings.EqualFold(tagged[j].Text, "of") &&
					j+1 < len(tagged) && tagged[j+1].Tag == ProperNoun && tagged[j+1].Sentence == t.Sentence {
					j += 2
					continue
				}
				break
			}
			out = append(out, tagged[i:j])
			i = j
		case Adjective, Noun:
			j := i
			nouns := 0
			for j < len(tagged) && tagged[j].Sentence == t.Sentence &&
				(tagged[j].Tag == Adjective || tagged[j].Tag == Noun) {
				if tagged[j].Tag == Noun {
					nouns++
				}
				j++
			}
			// must end in a noun per [JK95]; trim trailing adjectives
			end := j
			for end > i && tagged[end-1].Tag != Noun {
				end--
			}
			if nouns > 0 && end > i {
				span := tagged[i:end]
				if !allStopwords(span) {
					out = append(out, span)
				}
			}
			i = j
		default:
			i++
		}
	}
	return out
}

func allStopwords(span []Tagged) bool {
	for _, t := range span {
		if !tokenizer.IsStopword(t.Text) {
			return false
		}
	}
	return true
}

// PhraseText renders a keyphrase span as its space-joined surface form.
func PhraseText(span []Tagged) string {
	parts := make([]string, len(span))
	for i, t := range span {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}
