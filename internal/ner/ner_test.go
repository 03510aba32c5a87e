package ner

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"aida/internal/tokenizer"
)

func surfaces(ms []Mention) []string { return MentionSurfaces(ms) }

// recognize tokenizes text and recognizes its mentions.
func recognize(r Recognizer, text string) []Mention {
	return r.RecognizeTokens(text, tokenizer.Tokenize(text))
}

func TestRecognizeShapeOnly(t *testing.T) {
	var r Recognizer
	ms := recognize(r, "They performed Kashmir, written by Page and Plant.")
	want := []string{"Kashmir", "Page", "Plant"}
	if !reflect.DeepEqual(surfaces(ms), want) {
		t.Fatalf("got %v want %v", surfaces(ms), want)
	}
}

func TestRecognizeMultiToken(t *testing.T) {
	var r Recognizer
	ms := recognize(r, "He met Robert Plant in New York yesterday.")
	want := []string{"Robert Plant", "New York"}
	if !reflect.DeepEqual(surfaces(ms), want) {
		t.Fatalf("got %v want %v", surfaces(ms), want)
	}
}

func TestRecognizeJoiner(t *testing.T) {
	var r Recognizer
	ms := recognize(r, "officials at the Bank of England intervened")
	want := []string{"Bank of England"}
	if !reflect.DeepEqual(surfaces(ms), want) {
		t.Fatalf("got %v want %v", surfaces(ms), want)
	}
}

func TestRecognizeAcronym(t *testing.T) {
	var r Recognizer
	ms := recognize(r, "the NSA and the FBI traded files")
	want := []string{"NSA", "FBI"}
	if !reflect.DeepEqual(surfaces(ms), want) {
		t.Fatalf("got %v want %v", surfaces(ms), want)
	}
}

func TestRecognizeOffsets(t *testing.T) {
	var r Recognizer
	text := "Japan began the defence of their Asian Cup title against Syria."
	for _, m := range recognize(r, text) {
		if text[m.Start:m.End] != m.Text {
			t.Errorf("offsets of %q do not match slice %q", m.Text, text[m.Start:m.End])
		}
	}
}

func TestLexiconLongestMatch(t *testing.T) {
	lex := LexiconFunc(func(n string) bool {
		switch n {
		case "NEWPORT FOLK FESTIVAL", "NEWPORT":
			return true
		}
		return false
	})
	r := Recognizer{Lexicon: lex}
	ms := recognize(r, "Dylan played at the Newport Folk Festival there.")
	found := false
	for _, m := range ms {
		if m.Text == "Newport Folk Festival" {
			found = true
		}
		if m.Text == "Newport" {
			t.Errorf("shorter match preferred over longest")
		}
	}
	if !found {
		t.Fatalf("longest dictionary match not found in %v", surfaces(ms))
	}
}

func TestCaseSensitiveShortNames(t *testing.T) {
	if Normalized("US") != "US" {
		t.Errorf("short names must stay case-sensitive")
	}
	if Normalized("us") != "us" {
		t.Errorf("short names must stay case-sensitive")
	}
	if Normalized("Apple") != "APPLE" {
		t.Errorf("long names are upper-cased, got %q", Normalized("Apple"))
	}
}

func TestSentenceInitialStopword(t *testing.T) {
	var r Recognizer
	ms := recognize(r, "The game ended. Most fans left early.")
	for _, m := range ms {
		if m.Text == "The" || m.Text == "Most" {
			t.Errorf("sentence-initial stopword %q recognized as mention", m.Text)
		}
	}
}

func TestMaxTokens(t *testing.T) {
	var r Recognizer
	ms := recognize(r, "the Royal Bank Holding Company Trust Limited building")
	want := []string{"Royal Bank Holding Company Trust", "Limited"}
	if !reflect.DeepEqual(surfaces(ms), want) {
		t.Fatalf("got %v want %v: a six-token run must split after %d tokens", surfaces(ms), want, maxTokens)
	}
}

// Property: mentions never overlap, are in order, and slice back correctly.
func TestRecognizeInvariants(t *testing.T) {
	var r Recognizer
	f := func(words []string) bool {
		text := strings.Join(words, " ")
		prevEnd := -1
		for _, m := range recognize(r, text) {
			if m.Start < prevEnd || m.End <= m.Start {
				return false
			}
			if m.End > len(text) || text[m.Start:m.End] != m.Text {
				return false
			}
			prevEnd = m.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecognize(b *testing.B) {
	var r Recognizer
	text := strings.Repeat("Italy recalled Marcello Cuttitta for their friendly against Scotland at Murrayfield. ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recognize(r, text)
	}
}
