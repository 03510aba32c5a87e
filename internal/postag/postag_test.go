package postag

import (
	"reflect"
	"testing"

	"aida/internal/tokenizer"
)

func tagsOf(tagged []Tagged) []Tag {
	out := make([]Tag, len(tagged))
	for i, t := range tagged {
		out[i] = t.Tag
	}
	return out
}

// keyphraseStrings tags text and returns the surface forms of all
// extracted keyphrase candidates.
func keyphraseStrings(tg *Tagger, text string) []string {
	spans := ExtractKeyphrases(tg.TagTokens(tokenizer.Tokenize(text)))
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = PhraseText(s)
	}
	return out
}

func TestTagBasicSentence(t *testing.T) {
	var tg Tagger
	tagged := tg.TagTokens(tokenizer.Tokenize("The black fighter performed in Berlin."))
	want := []Tag{Determiner, Noun, Noun, Verb, Preposition, ProperNoun, Punctuation}
	if !reflect.DeepEqual(tagsOf(tagged), want) {
		t.Fatalf("got %v want %v", tagsOf(tagged), want)
	}
}

func TestTagProperNounsMidSentence(t *testing.T) {
	var tg Tagger
	tagged := tg.TagTokens(tokenizer.Tokenize("They performed Kashmir with Page."))
	byText := map[string]Tag{}
	for _, tok := range tagged {
		byText[tok.Text] = tok.Tag
	}
	if byText["Kashmir"] != ProperNoun {
		t.Errorf("Kashmir tagged %v", byText["Kashmir"])
	}
	if byText["Page"] != ProperNoun {
		t.Errorf("Page tagged %v", byText["Page"])
	}
	if byText["performed"] != Verb {
		t.Errorf("performed tagged %v", byText["performed"])
	}
}

func TestTagAcronym(t *testing.T) {
	var tg Tagger
	tagged := tg.TagTokens(tokenizer.Tokenize("officials from NATO met"))
	if tagged[2].Tag != ProperNoun {
		t.Errorf("NATO tagged %v", tagged[2].Tag)
	}
}

func TestTagNumberAndSuffixes(t *testing.T) {
	var tg Tagger
	tagged := tg.TagTokens(tokenizer.Tokenize("the musical group quickly released 1976 recordings"))
	byText := map[string]Tag{}
	for _, tok := range tagged {
		byText[tok.Text] = tok.Tag
	}
	if byText["musical"] != Adjective {
		t.Errorf("musical tagged %v", byText["musical"])
	}
	if byText["quickly"] != Adverb {
		t.Errorf("quickly tagged %v", byText["quickly"])
	}
	if byText["1976"] != Number {
		t.Errorf("1976 tagged %v", byText["1976"])
	}
}

func TestExtractKeyphrasesProperNouns(t *testing.T) {
	var tg Tagger
	got := keyphraseStrings(&tg, "officials at the Bank of England met Robert Plant")
	want := map[string]bool{"Bank of England": true, "Robert Plant": true}
	found := 0
	for _, p := range got {
		if want[p] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("keyphrases %v missing expected proper-noun spans", got)
	}
}

func TestExtractKeyphrasesTechnicalTerms(t *testing.T) {
	var tg Tagger
	got := keyphraseStrings(&tg, "the secret surveillance program used a powerful search engine")
	asSet := map[string]bool{}
	for _, p := range got {
		asSet[p] = true
	}
	if !asSet["secret surveillance program"] && !asSet["surveillance program"] {
		t.Errorf("missing technical term in %v", got)
	}
	if !asSet["powerful search engine"] && !asSet["search engine"] {
		t.Errorf("missing search engine phrase in %v", got)
	}
}

func TestExtractKeyphrasesEndsInNoun(t *testing.T) {
	var tg Tagger
	tagged := tg.TagTokens(tokenizer.Tokenize("an economic situation"))
	spans := ExtractKeyphrases(tagged)
	for _, s := range spans {
		if s[len(s)-1].Tag != Noun && s[len(s)-1].Tag != ProperNoun {
			t.Errorf("span %q does not end in a noun", PhraseText(s))
		}
	}
}

func TestExtractKeyphrasesNoCrossSentence(t *testing.T) {
	var tg Tagger
	got := keyphraseStrings(&tg, "He met Robert. Plant sang.")
	for _, p := range got {
		if p == "Robert . Plant" || p == "Robert Plant" {
			t.Errorf("keyphrase crosses sentence boundary: %q", p)
		}
	}
}

func TestPhraseText(t *testing.T) {
	var tg Tagger
	tagged := tg.TagTokens(tokenizer.Tokenize("hard rock"))
	spans := ExtractKeyphrases(tagged)
	if len(spans) == 0 || PhraseText(spans[0]) != "hard rock" {
		t.Fatalf("got %v", spans)
	}
}

func BenchmarkTagText(b *testing.B) {
	var tg Tagger
	text := "Washington's program Prism was revealed by the whistleblower Snowden in a secret surveillance operation."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tg.TagTokens(tokenizer.Tokenize(text))
	}
}
