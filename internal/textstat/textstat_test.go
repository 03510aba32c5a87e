package textstat

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestIDF(t *testing.T) {
	if !almost(IDF(8, 2), 2) {
		t.Errorf("IDF(8,2) = %v, want 2", IDF(8, 2))
	}
	if IDF(8, 0) != 0 {
		t.Errorf("IDF with zero df must be 0")
	}
	if IDF(4, 8) != 0 {
		t.Errorf("IDF must not go negative")
	}
}

func TestNPMIBounds(t *testing.T) {
	// Perfectly correlated events: npmi -> 1.
	if got := NPMI(0.1, 0.1, 0.1); !almost(got, 1) {
		t.Errorf("perfect correlation: got %v", got)
	}
	// Independent events: npmi == 0.
	if got := NPMI(0.25, 0.5, 0.5); !almost(got, 0) {
		t.Errorf("independence: got %v", got)
	}
	// Anti-correlated events yield negative values.
	if got := NPMI(0.01, 0.5, 0.5); got >= 0 {
		t.Errorf("anti-correlation should be negative, got %v", got)
	}
	if NPMI(0, 0.5, 0.5) != 0 {
		t.Errorf("degenerate input must be 0")
	}
}

func TestNPMIRange(t *testing.T) {
	f := func(a, b, c uint8) bool {
		pj := (float64(a%100) + 1) / 102
		pe := math.Max(pj, (float64(b%100)+1)/102)
		pk := math.Max(pj, (float64(c%100)+1)/102)
		v := NPMI(pj, pe, pk)
		return v <= 1+1e-9 && v >= -1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContingencyMI(t *testing.T) {
	// Identical events: µ = 1.
	if got := ContingencyMI(50, 0, 0, 50); !almost(got, 1) {
		t.Errorf("identical events: got %v", got)
	}
	// Independent events: µ = 0.
	if got := ContingencyMI(25, 25, 25, 25); !almost(got, 0) {
		t.Errorf("independent events: got %v", got)
	}
	// Partial association is strictly between.
	got := ContingencyMI(40, 10, 10, 40)
	if got <= 0 || got >= 1 {
		t.Errorf("partial association out of range: %v", got)
	}
}

func TestContingencyMIRange(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		v := ContingencyMI(float64(a), float64(b), float64(c), float64(d))
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func unitWeight(string) float64 { return 1 }

// scorePhrase is Eq. 3.4 of one phrase against a document through the
// integer kernel, held bit-equal to the string reference on the way.
func scorePhrase(t testing.TB, doc, phrase []string, weight Weighter) float64 {
	t.Helper()
	ids := map[string]WordID{}
	tokens := make([]WordID, len(doc))
	for i, w := range doc {
		if _, ok := ids[w]; !ok {
			ids[w] = WordID(len(ids))
		}
		tokens[i] = ids[w]
	}
	var ps Phrases
	ps.Append(phrase, func(w string) (WordID, float64) {
		id, ok := ids[w]
		if !ok {
			id = NoWord
		}
		return id, weight(w)
	})
	got, _ := NewIndex(tokens).Cover(&ps)
	if want := ScoreCover(NewMatcher(doc).FindCover(phrase), phrase, weight); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("doc %q phrase %q: kernel %v, reference %v", doc, phrase, got, want)
	}
	return got
}

func TestFindCoverExact(t *testing.T) {
	m := NewMatcher([]string{"grammy", "award", "winner", "of", "prizes"})
	c := m.FindCover([]string{"grammy", "award", "winner"})
	if c.Matched != 3 || c.Length != 3 {
		t.Fatalf("got %+v, want matched=3 len=3", c)
	}
}

func TestFindCoverPaperExample(t *testing.T) {
	// "winner of many prizes including the Grammy": cover length 7 for
	// keyphrase "Grammy award winner" (2 of 3 words matched).
	doc := []string{"winner", "of", "many", "prizes", "including", "the", "grammy"}
	m := NewMatcher(doc)
	c := m.FindCover([]string{"grammy", "award", "winner"})
	if c.Matched != 2 {
		t.Fatalf("matched = %d, want 2", c.Matched)
	}
	if c.Length != 7 {
		t.Fatalf("cover length = %d, want 7", c.Length)
	}
}

func TestFindCoverShortest(t *testing.T) {
	// The words co-occur twice; the shorter window must win.
	doc := []string{"rock", "x", "x", "x", "hard", "y", "hard", "rock"}
	m := NewMatcher(doc)
	c := m.FindCover([]string{"hard", "rock"})
	if c.Length != 2 {
		t.Fatalf("cover length = %d, want 2", c.Length)
	}
}

func TestFindCoverNoMatch(t *testing.T) {
	m := NewMatcher([]string{"unrelated", "words"})
	c := m.FindCover([]string{"grammy", "award"})
	if c.Matched != 0 {
		t.Fatalf("got %+v, want no match", c)
	}
}

func TestFindCoverDuplicatePhraseWords(t *testing.T) {
	m := NewMatcher([]string{"new", "york", "new", "york"})
	c := m.FindCover([]string{"new", "york", "new"})
	if c.Matched != 2 { // distinct words only
		t.Fatalf("matched = %d, want 2", c.Matched)
	}
	if c.Length != 2 {
		t.Fatalf("length = %d, want 2", c.Length)
	}
}

func TestScoreCoverFullMatch(t *testing.T) {
	got := scorePhrase(t, []string{"hard", "rock"}, []string{"hard", "rock"}, unitWeight)
	if !almost(got, 1) { // z = 2/2, frac = 1
		t.Fatalf("full adjacent match should score 1, got %v", got)
	}
}

func TestScoreCoverPartialPenalty(t *testing.T) {
	doc := []string{"winner", "of", "many", "prizes", "including", "the", "grammy"}
	got := scorePhrase(t, doc, []string{"grammy", "award", "winner"}, unitWeight)
	want := (2.0 / 7.0) * (2.0 / 3.0) * (2.0 / 3.0)
	if !almost(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestScoreCoverWeighted(t *testing.T) {
	doc := []string{"engine", "stuff"}
	w := func(word string) float64 {
		if word == "engine" {
			return 3
		}
		return 1
	}
	got := scorePhrase(t, doc, []string{"search", "engine"}, w)
	want := (1.0 / 1.0) * (3.0 / 4.0) * (3.0 / 4.0)
	if !almost(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestScoreMonotoneInMatches(t *testing.T) {
	// More matched words must never reduce the score when the cover is tight.
	phrase := []string{"grammy", "award", "winner"}
	if scorePhrase(t, phrase, phrase, unitWeight) <= scorePhrase(t, phrase[:2], phrase, unitWeight) {
		t.Fatal("full match should outscore partial match")
	}
}

// Property: scores are always in [0, 1] for unit weights.
func TestScoreRange(t *testing.T) {
	f := func(doc, phrase []string) bool {
		if len(phrase) == 0 {
			return true
		}
		s := scorePhrase(t, doc, phrase, unitWeight)
		return s >= 0 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindCover(b *testing.B) {
	doc := make([]string, 0, 1000)
	for i := 0; i < 200; i++ {
		doc = append(doc, "a", "b", "c", "grammy", "award")
	}
	m := NewMatcher(doc)
	phrase := []string{"grammy", "award", "winner"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.FindCover(phrase)
	}
}
