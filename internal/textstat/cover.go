package textstat

import "slices"

// A Matcher scores partial keyphrase matches against one document, following
// Section 3.3.4: for each keyphrase it finds the shortest token window (the
// "cover") that contains a maximal number of the phrase's words, and scores
//
//	score(q) = z * (Σ_{w∈cover} weight(w) / Σ_{w∈q} weight(w))²
//
// where z = #matching-words / cover-length (Eq. 3.4). The squared factor
// penalizes phrases with missing words superlinearly.
//
// The Matcher works on strings and is the readable reference: the pipeline
// scores through Index, the same computation over word ids, which
// TestCompiledCoverMatchesScorePhrase holds to FindCover and ScoreCover bit
// for bit.
type Matcher struct {
	positions map[string][]int // lower-cased word → sorted token positions
	length    int
}

// NewMatcher indexes the (lower-cased, stopword-filtered) document tokens.
func NewMatcher(docWords []string) *Matcher {
	m := &Matcher{positions: make(map[string][]int, len(docWords)), length: len(docWords)}
	for i, w := range docWords {
		m.positions[w] = append(m.positions[w], i)
	}
	return m
}

// Cover describes the best partial match of one phrase.
type Cover struct {
	Matched int      // number of distinct phrase words found
	Length  int      // token length of the shortest cover window
	Words   []string // the distinct phrase words found, in phrase order
}

// occurrence pairs a document position with the phrase-word index it matches.
type occurrence struct {
	pos  int
	word int
}

// FindCover computes the shortest window containing a maximal number of
// distinct phrase words. The zero Cover (Matched==0) means no phrase word
// occurs in the document.
func (m *Matcher) FindCover(phraseWords []string) Cover {
	// Distinct phrase words that occur at all.
	type wordOcc struct {
		word string
		idx  int
		pos  []int
	}
	seen := map[string]bool{}
	var present []wordOcc
	for _, w := range phraseWords {
		if seen[w] {
			continue
		}
		seen[w] = true
		if p := m.positions[w]; len(p) > 0 {
			present = append(present, wordOcc{word: w, idx: len(present), pos: p})
		}
	}
	if len(present) == 0 {
		return Cover{}
	}
	words := make([]string, len(present))
	var occs []occurrence
	for _, wo := range present {
		words[wo.idx] = wo.word
		for _, p := range wo.pos {
			occs = append(occs, occurrence{pos: p, word: wo.idx})
		}
	}
	slices.SortFunc(occs, func(a, b occurrence) int { return a.pos - b.pos })

	// Sliding window over occurrences: find the minimal window containing
	// all present words. All `present` words occur somewhere, so a full
	// cover always exists; the cover length is minimized.
	need := len(present)
	counts := make([]int, need)
	have := 0
	best := -1
	lo := 0
	for hi := 0; hi < len(occs); hi++ {
		if counts[occs[hi].word] == 0 {
			have++
		}
		counts[occs[hi].word]++
		for have == need {
			span := occs[hi].pos - occs[lo].pos + 1
			if best < 0 || span < best {
				best = span
			}
			counts[occs[lo].word]--
			if counts[occs[lo].word] == 0 {
				have--
			}
			lo++
		}
	}
	return Cover{Matched: need, Length: best, Words: words}
}

// Weighter returns a weight for a (phrase-)word in the context of a given
// entity; AIDA uses either NPMI or keyword IDF weights (Sec. 3.3.4).
type Weighter func(word string) float64

// ScoreCover evaluates Eq. 3.4 for a phrase with the given cover.
func ScoreCover(c Cover, phraseWords []string, weight Weighter) float64 {
	if c.Matched == 0 || c.Length <= 0 {
		return 0
	}
	var matchedW, totalW float64
	seen := map[string]bool{}
	for _, w := range phraseWords {
		if seen[w] {
			continue
		}
		seen[w] = true
		totalW += weight(w)
	}
	for _, w := range c.Words {
		matchedW += weight(w)
	}
	if totalW <= 0 {
		return 0
	}
	z := float64(c.Matched) / float64(c.Length)
	frac := matchedW / totalW
	return z * frac * frac
}
