// Package ner implements a named entity recognizer producing the mention
// spans that the disambiguation stage consumes.
//
// The dissertation uses the Stanford NER tagger as a black-box preprocessing
// step (Sec. 3.3.1); all its experiments assume mention spans are given.
// This package is a faithful functional stand-in: a dictionary- and
// shape-driven BIO recognizer. It marks maximal capitalized token sequences
// and all-upper-case acronyms as mentions, preferring longest matches
// against a name dictionary when one is supplied, and applying the
// dissertation's case rules: names of three or fewer characters match
// case-sensitively (to separate "US" from "us"), longer mentions are matched
// case-insensitively (Sec. 3.3.2).
package ner

import (
	"strings"

	"aida/internal/tokenizer"
)

// Mention is a recognized entity name occurrence in a document.
type Mention struct {
	Text       string // surface form as it appears in the text
	Start, End int    // byte offsets into the document
	TokenStart int    // index of the first token of the mention
	TokenEnd   int    // index one past the last token
	Sentence   int    // sentence index of the mention
}

// Normalized returns the dictionary lookup key for the mention: surface form
// as-is for names of up to three characters, upper-cased otherwise
// (Sec. 3.3.2).
func Normalized(surface string) string {
	if len([]rune(surface)) <= 3 {
		return surface
	}
	return strings.ToUpper(surface)
}

// Lexicon answers whether a (multi-token) name is known. A nil Lexicon
// disables dictionary lookups and the recognizer falls back to shape rules
// alone.
type Lexicon interface {
	// HasName reports whether the normalized name is in the dictionary.
	HasName(normalized string) bool
}

// LexiconFunc adapts a function to the Lexicon interface.
type LexiconFunc func(string) bool

// HasName implements Lexicon.
func (f LexiconFunc) HasName(n string) bool { return f(n) }

// Recognizer finds entity mentions in text. The zero value works with shape
// rules only; set Lexicon to prefer dictionary-confirmed spans.
type Recognizer struct {
	Lexicon Lexicon
}

// maxTokens bounds the length of a mention in tokens.
const maxTokens = 5

// isNameToken reports whether the token can be part of an entity name.
func isNameToken(t tokenizer.Token, sentenceStart bool) bool {
	switch tokenizer.TokenShape(t.Text) {
	case tokenizer.ShapeUpper:
		// Acronyms ("USA", "FBI") qualify; single letters do not.
		return len([]rune(t.Text)) >= 2
	case tokenizer.ShapeCap, tokenizer.ShapeMixed:
		return true
	}
	return false
}

// nameJoiner tokens may appear inside a multi-token name.
func isNameJoiner(t tokenizer.Token) bool {
	switch strings.ToLower(t.Text) {
	case "of", "de", "von", "van", "al":
		return true
	}
	return false
}

// RecognizeTokens returns the mentions of text, in document order, given
// its tokens (tokenizer.Tokenize(text)).
func (r *Recognizer) RecognizeTokens(text string, tokens []tokenizer.Token) []Mention {
	var mentions []Mention
	prevSentence := -1
	i := 0
	for i < len(tokens) {
		t := tokens[i]
		sentenceStart := t.Sentence != prevSentence
		prevSentence = t.Sentence
		if !isNameToken(t, sentenceStart) {
			i++
			continue
		}
		// Extend to the longest plausible name span within the sentence.
		limit := i + maxTokens
		j := i + 1
		for j < len(tokens) && j < limit && tokens[j].Sentence == t.Sentence {
			if isNameToken(tokens[j], false) {
				j++
				continue
			}
			if isNameJoiner(tokens[j]) && j+1 < len(tokens) && j+1 < limit &&
				tokens[j+1].Sentence == t.Sentence && isNameToken(tokens[j+1], false) {
				j += 2
				continue
			}
			break
		}
		// Prefer the longest dictionary-confirmed sub-span starting at i.
		end := r.bestSpan(text, tokens, i, j, sentenceStart)
		if end < 0 {
			i++
			continue
		}
		first, last := tokens[i], tokens[end-1]
		mentions = append(mentions, Mention{
			Text:       text[first.Start:last.End],
			Start:      first.Start,
			End:        last.End,
			TokenStart: i,
			TokenEnd:   end,
			Sentence:   first.Sentence,
		})
		i = end
	}
	return mentions
}

// bestSpan picks the end (exclusive token index) of the mention starting at
// token i, or -1 if the span should be rejected.
func (r *Recognizer) bestSpan(text string, tokens []tokenizer.Token, i, j int, sentenceStart bool) int {
	if r.Lexicon != nil {
		for end := j; end > i; end-- {
			surface := text[tokens[i].Start:tokens[end-1].End]
			if r.Lexicon.HasName(Normalized(surface)) {
				return end
			}
		}
		// Unknown name: keep shape-based span unless it is a
		// sentence-initial single common-looking word, which is usually an
		// ordinary capitalized word, not a name.
		if sentenceStart && j == i+1 && tokenizer.TokenShape(tokens[i].Text) == tokenizer.ShapeCap &&
			tokenizer.IsStopword(tokens[i].Text) {
			return -1
		}
		return j
	}
	if sentenceStart && j == i+1 && tokenizer.IsStopword(tokens[i].Text) {
		return -1
	}
	return j
}

// MentionSurfaces extracts the surface strings of mentions.
func MentionSurfaces(mentions []Mention) []string {
	out := make([]string, len(mentions))
	for i, m := range mentions {
		out[i] = m.Text
	}
	return out
}
