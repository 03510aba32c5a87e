package tokenizer

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("They performed Kashmir, written by Page and Plant.")
	want := []string{"They", "performed", "Kashmir", ",", "written", "by", "Page", "and", "Plant", "."}
	if !reflect.DeepEqual(texts(toks), want) {
		t.Fatalf("got %v want %v", texts(toks), want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	in := "Page played his Gibson."
	for _, tok := range Tokenize(in) {
		if got := in[tok.Start:tok.End]; got != tok.Text {
			t.Errorf("offset mismatch: slice %q token %q", got, tok.Text)
		}
	}
}

func TestTokenizeApostropheHyphen(t *testing.T) {
	toks := Tokenize("O'Neill's news-wire report")
	want := []string{"O'Neill's", "news-wire", "report"}
	if !reflect.DeepEqual(texts(toks), want) {
		t.Fatalf("got %v want %v", texts(toks), want)
	}
}

func TestTokenizeAbbreviation(t *testing.T) {
	toks := Tokenize("The U.S. economy grew.")
	want := []string{"The", "U.S.", "economy", "grew", "."}
	if !reflect.DeepEqual(texts(toks), want) {
		t.Fatalf("got %v want %v", texts(toks), want)
	}
}

func TestSentenceSplitting(t *testing.T) {
	toks := Tokenize("Dylan released Desire. It was recorded in 1976. Critics loved it.")
	if n := toks[len(toks)-1].Sentence + 1; n != 3 {
		t.Fatalf("want 3 sentences, got %d: %v", n, toks)
	}
	for i, tok := range toks {
		if tok.Text == "It" {
			if tok.Sentence != 1 || toks[i-1].Sentence != 0 {
				t.Errorf("second sentence should start at %q: %+v", tok.Text, toks[i-1:i+1])
			}
		}
	}
}

func TestSentenceNotSplitOnDecimal(t *testing.T) {
	toks := Tokenize("Growth was 3.5 percent. Inflation fell.")
	if n := toks[len(toks)-1].Sentence + 1; n != 2 {
		t.Fatalf("want 2 sentences, got %d", n)
	}
}

func TestTokenShape(t *testing.T) {
	cases := []struct {
		in   string
		want Shape
	}{
		{"guitar", ShapeLower},
		{"Kashmir", ShapeCap},
		{"NATO", ShapeUpper},
		{"iPhone", ShapeMixed},
		{"1976", ShapeOther},
	}
	for _, c := range cases {
		if got := TokenShape(c.in); got != c.want {
			t.Errorf("TokenShape(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsPunctAndNumeric(t *testing.T) {
	toks := Tokenize("Karlsruhe 3 ( Reich , 29th )")
	if !toks[2].IsPunct() {
		t.Errorf("%q should be punct", toks[2].Text)
	}
	if !toks[1].IsNumeric() {
		t.Errorf("%q should be numeric", toks[1].Text)
	}
	if toks[4].IsNumeric() { // "29th" contains letters
		t.Errorf("%q should not be numeric", toks[4].Text)
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("The opener on the record is a song about the fighter.")
	want := []string{"opener", "record", "song", "fighter"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("The") {
		t.Error("The should be a stopword (case-insensitive)")
	}
	if IsStopword("guitar") {
		t.Error("guitar should not be a stopword")
	}
}

// Property: every token's offsets slice back to its text, tokens are in
// strictly increasing offset order, and sentence indices never decrease.
func TestTokenizeInvariants(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		prevEnd := 0
		prevSent := 0
		for _, tok := range toks {
			if tok.Start < prevEnd || tok.End <= tok.Start {
				return false
			}
			if tok.End > len(s) || s[tok.Start:tok.End] != tok.Text {
				return false
			}
			if tok.Sentence < prevSent {
				return false
			}
			prevEnd = tok.End
			prevSent = tok.Sentence
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: tokenizing never loses non-space content.
func TestTokenizeCoversContent(t *testing.T) {
	f := func(words []string) bool {
		in := strings.Join(words, " ")
		toks := Tokenize(in)
		var sb strings.Builder
		for _, tok := range toks {
			sb.WriteString(tok.Text)
		}
		return sb.String() == strings.Join(strings.Fields(in), "")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("They performed Kashmir, written by Page and Plant. Page played unusual chords on his Gibson. ", 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}
