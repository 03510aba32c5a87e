package textstat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestCompiledCoverMatchesScorePhrase is the property the integer kernel is
// held to: on seeded random documents and phrases, Index.Score of a compiled
// phrase is ScoreCover(m.FindCover(words), words, weight) of the string
// Matcher over the same text, compared on the float bits — and Cover's sum
// and best are those scores added, and maximized, in phrase order. The cases
// cover what the pipeline meets: phrase words repeated, document words
// repeated, words the vocabulary does not have on either side (a document
// word outside it gets a text-local id, a phrase word found nowhere gets
// NoWord), empty phrases, all-zero weights, and phrases with more present
// words and occurrences than the kernel's stack buffers hold.
func TestCompiledCoverMatchesScorePhrase(t *testing.T) {
	var scored, matched, multi, long int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Vocabulary words v*, document-only words d*, phrase-only words p*.
		nVocab := 3 + rng.Intn(40)
		word := func() string {
			switch r := rng.Intn(10); {
			case r < 7:
				return fmt.Sprintf("v%d", rng.Intn(nVocab))
			case r < 8:
				return fmt.Sprintf("d%d", rng.Intn(4))
			default:
				return fmt.Sprintf("p%d", rng.Intn(4))
			}
		}
		zeroWeights := seed%17 == 0
		weights := map[string]float64{}
		weight := func(w string) float64 {
			if zeroWeights {
				return 0
			}
			v, ok := weights[w]
			if !ok {
				if v = rng.Float64() * 9; rng.Intn(6) == 0 {
					v = 0
				}
				weights[w] = v
			}
			return v
		}

		doc := make([]string, rng.Intn(120))
		for i := range doc {
			if doc[i] = word(); doc[i][0] == 'p' {
				doc[i] = "d" + doc[i][1:]
			}
		}
		ids := map[string]WordID{}
		for i := 0; i < nVocab; i++ {
			ids[fmt.Sprintf("v%d", i)] = WordID(i)
		}
		tokens := make([]WordID, len(doc))
		for i, w := range doc {
			if _, ok := ids[w]; !ok {
				ids[w] = NoWord - 1 - WordID(len(ids)) // outside the vocabulary: a local id
			}
			tokens[i] = ids[w]
		}
		m, ix := NewMatcher(doc), NewIndex(tokens)

		var ps Phrases
		var phrases [][]string
		for n := rng.Intn(12); n > 0; n-- {
			size := rng.Intn(6)
			if rng.Intn(8) == 0 {
				size = 20 + rng.Intn(40) // past the kernel's fixed scratch
			}
			phrase := make([]string, size)
			for i := range phrase {
				if phrase[i] = word(); phrase[i][0] == 'd' && rng.Intn(2) == 0 {
					phrase[i] = "p" + phrase[i][1:]
				}
			}
			phrases = append(phrases, phrase)
			ps.Append(phrase, func(w string) (WordID, float64) {
				id, ok := ids[w]
				if !ok {
					id = NoWord
				}
				return id, weight(w)
			})
		}

		var wantSum, wantBest float64
		at := 0
		for _, phrase := range phrases {
			c := m.FindCover(phrase)
			want := ScoreCover(c, phrase, weight)
			if want > 0 {
				wantSum += want
				wantBest = max(wantBest, want)
			}
			if len(phrase) == 0 {
				continue // compiles to nothing
			}
			ids, wts, total, next := ps.Phrase(at)
			got := ix.Score(ids, wts, total)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: doc %q phrase %q: kernel %v, reference %v (cover %+v)", seed, doc, phrase, got, want, c)
			}
			scored++
			if c.Matched > 0 {
				matched++
			}
			if c.Matched > 1 {
				multi++
			}
			if c.Matched > 16 {
				long++
			}
			at = next
		}
		if at != len(ps.IDs) {
			t.Fatalf("seed %d: the compiled phrases end at slot %d, the scored ones at %d", seed, len(ps.IDs), at)
		}
		sum, best := ix.Cover(&ps)
		if math.Float64bits(sum) != math.Float64bits(wantSum) || math.Float64bits(best) != math.Float64bits(wantBest) {
			t.Fatalf("seed %d: Cover = (%v, %v), want (%v, %v)", seed, sum, best, wantSum, wantBest)
		}
	}
	// The property is only worth its name if the cases it names occurred.
	if scored < 1000 || matched < scored/2 || multi < scored/4 || long < 20 {
		t.Fatalf("weak cases: %d phrases scored, %d matched, %d with a window, %d past the fixed scratch", scored, matched, multi, long)
	}
}

// An Index over no tokens, or NoWord tokens only, matches nothing.
func TestIndexEmptyText(t *testing.T) {
	for _, tokens := range [][]WordID{nil, {NoWord, NoWord}} {
		ix := NewIndex(tokens)
		if got := ix.Score([]WordID{0, NoWord}, []float64{1, 1}, 2); got != 0 {
			t.Fatalf("tokens %v: score %v, want 0", tokens, got)
		}
	}
}
