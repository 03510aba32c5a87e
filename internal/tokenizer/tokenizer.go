// Package tokenizer provides tokenization, sentence splitting and basic
// lexical normalization for the AIDA pipeline.
//
// The tokenizer is a rule-based segmenter tuned for news-wire style English
// text, which is the genre the dissertation evaluates on (CoNLL 2003
// Reuters articles). It preserves byte offsets so downstream annotations
// (mentions, keyphrase covers) can always be mapped back to the input.
package tokenizer

import (
	"strings"
	"unicode"

	"aida/internal/pool"
)

// Token is a single token with its position in the original text.
type Token struct {
	Text     string // the token surface form, exactly as in the input
	Start    int    // byte offset of the first byte
	End      int    // byte offset one past the last byte
	Sentence int    // zero-based sentence index
	Index    int    // zero-based token index within the document
}

// IsPunct reports whether the token consists only of punctuation or symbols.
func (t Token) IsPunct() bool {
	for _, r := range t.Text {
		if !unicode.IsPunct(r) && !unicode.IsSymbol(r) {
			return false
		}
	}
	return len(t.Text) > 0
}

// IsNumeric reports whether the token is composed of digits (optionally with
// separators such as "," "." "-" commonly found in scores and dates).
func (t Token) IsNumeric() bool {
	digits := 0
	for _, r := range t.Text {
		switch {
		case unicode.IsDigit(r):
			digits++
		case r == '.' || r == ',' || r == '-' || r == '/' || r == ':':
		default:
			return false
		}
	}
	return digits > 0
}

// Shape describes the capitalization shape of a token.
type Shape int

// Token shapes, in increasing order of "entity likeness".
const (
	ShapeLower Shape = iota // "guitar"
	ShapeCap                // "Kashmir"
	ShapeUpper              // "NATO"
	ShapeMixed              // "iPhone"
	ShapeOther              // digits, punctuation, ...
)

// TokenShape classifies the capitalization shape of s.
func TokenShape(s string) Shape {
	var hasUpper, hasLower, hasOther bool
	first := true
	firstUpper := false
	for _, r := range s {
		switch {
		case unicode.IsUpper(r):
			hasUpper = true
			if first {
				firstUpper = true
			}
		case unicode.IsLower(r):
			hasLower = true
		default:
			hasOther = true
		}
		first = false
	}
	switch {
	case hasOther && !hasUpper && !hasLower:
		return ShapeOther
	case hasUpper && !hasLower:
		return ShapeUpper
	case firstUpper && hasLower:
		return ShapeCap
	case hasUpper && hasLower:
		return ShapeMixed
	default:
		return ShapeLower
	}
}

// sentenceEnders terminate a sentence when followed by whitespace and an
// upper-case letter (or end of input).
func isSentenceEnder(r rune) bool {
	return r == '.' || r == '!' || r == '?'
}

// isTokenRune reports whether r may appear inside a word token.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// tokenizeScratch holds the per-call rune and byte-offset buffers of the
// tokenizer. Tokenization runs once per document on the annotate hot path,
// so these buffers are recycled through a pool instead of being
// reallocated per call.
type tokenizeScratch struct {
	runes []rune
	offs  []int
}

var tokenizeBufs = pool.Scratch[tokenizeScratch]{
	New: func() *tokenizeScratch { return &tokenizeScratch{} },
}

// Tokenize splits text into tokens with byte offsets and sentence indices.
//
// Rules: letters and digits form word tokens; intra-word apostrophes,
// hyphens and periods in abbreviations ("U.S.") are kept inside the token;
// all other punctuation becomes single-rune tokens. Sentences are split on
// ".", "!", "?" when the next non-space rune starts a new sentence.
func Tokenize(text string) []Token {
	return AppendTokens(nil, text)
}

// AppendTokens is Tokenize appending into a caller-owned slice, so a
// caller annotating a stream of documents can reuse one token buffer
// across them. Token.Text values are substrings of text (no per-token
// copies), matching the field's contract: the surface form exactly as in
// the input.
func AppendTokens(tokens []Token, text string) []Token {
	sentence := 0
	i := 0
	sc := tokenizeBufs.Get()
	runes, offs := sc.runes[:0], sc.offs[:0]
	for b, r := range text {
		runes = append(runes, r)
		offs = append(offs, b)
	}
	offs = append(offs, len(text))
	base := len(tokens)
	flushSentence := func(ri int) bool {
		// A sentence ends if the ending punctuation is followed by
		// whitespace and then an uppercase letter, a digit, or EOF.
		j := ri + 1
		for j < len(runes) && unicode.IsSpace(runes[j]) {
			j++
		}
		if j == len(runes) {
			return true
		}
		if j == ri+1 {
			return false // no whitespace after the period: "3.5"
		}
		r := runes[j]
		return unicode.IsUpper(r) || unicode.IsDigit(r) || r == '"' || r == '\''
	}
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case isTokenRune(r):
			j := i
			for j < len(runes) {
				rj := runes[j]
				if isTokenRune(rj) {
					j++
					continue
				}
				// Keep internal apostrophes ("O'Neill"), hyphens
				// ("news-wire") and abbreviation periods ("U.S.").
				if (rj == '\'' || rj == '-' || rj == '.') && j+1 < len(runes) && isTokenRune(runes[j+1]) {
					// "U.S." style: only join "." when segments are single letters.
					if rj == '.' && !isAbbrevDot(runes, i, j) {
						break
					}
					j += 2
					// include the rune after the joiner in the scan
					for j < len(runes) && isTokenRune(runes[j]) {
						j++
					}
					continue
				}
				break
			}
			// Trailing abbreviation period: "U.S." keeps its final dot.
			if j < len(runes) && runes[j] == '.' && isAbbrevRunes(runes[i:j]) {
				j++
			}
			tokens = append(tokens, Token{
				Text:     text[offs[i]:offs[j]],
				Start:    offs[i],
				End:      offs[j],
				Sentence: sentence,
				Index:    len(tokens) - base,
			})
			i = j
		default:
			tokens = append(tokens, Token{
				Text:     text[offs[i]:offs[i+1]],
				Start:    offs[i],
				End:      offs[i+1],
				Sentence: sentence,
				Index:    len(tokens) - base,
			})
			if isSentenceEnder(r) && flushSentence(i) {
				sentence++
			}
			i++
		}
	}
	sc.runes, sc.offs = runes, offs
	tokenizeBufs.Put(sc)
	return tokens
}

// isAbbrevDot reports whether the period at position j continues an
// abbreviation such as "U.S." that started at rune position start.
func isAbbrevDot(runes []rune, start, j int) bool {
	// The segment before the dot must be a single letter.
	segLen := 0
	for k := j - 1; k >= start; k-- {
		if runes[k] == '.' {
			break
		}
		segLen++
	}
	return segLen == 1 && unicode.IsLetter(runes[j-1])
}

// isAbbrevRunes reports whether the rune span looks like a dotted
// abbreviation body ("U.S", "U.N") whose trailing period belongs to the
// token.
func isAbbrevRunes(rs []rune) bool {
	dots := 0
	seg := 0
	for _, r := range rs {
		if r == '.' {
			dots++
			seg = 0
			continue
		}
		seg++
		if seg > 1 {
			return false
		}
	}
	return dots > 0
}

// Words returns the lower-cased word tokens of text, dropping punctuation.
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.IsPunct() {
			continue
		}
		out = append(out, strings.ToLower(t.Text))
	}
	return out
}

// Normalize lower-cases a token for use as a dictionary or index key.
func Normalize(s string) string { return strings.ToLower(s) }
