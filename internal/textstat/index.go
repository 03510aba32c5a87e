package textstat

import (
	"math/bits"
	"slices"
)

// WordID identifies a keyword by a small integer. Ids are issued by a
// vocabulary (kb.Vocab) and mean nothing outside the process that built it;
// everything in this file only ever compares them for equality.
type WordID int32

// NoWord is the id of a phrase word that cannot occur in the text at hand.
// It still counts towards its phrase's total weight.
const NoWord WordID = -1

// Phrases is the compiled form of a keyphrase set, scored by Index.Cover: two
// parallel pointer-free arrays in which the phrases lie end to end, each as
// one header slot followed by one slot per distinct word, in phrase order:
//
//	IDs: [n, id₁ … idₙ, m, id₁ … idₘ, …]   the word count, then the word ids
//	Wts: [Σ, w₁ … wₙ,   Σ, w₁ … wₘ,   …]   the total weight, then each word's
//
// where Σ is the weights summed in that order. One scan reads a phrase's ids,
// weights and total from two places in memory, which is what scoring a
// candidate costs when its entity is cold in the cache.
type Phrases struct {
	IDs []WordID
	Wts []float64 // parallel to IDs
}

// Reset empties p, keeping its arrays for reuse.
func (p *Phrases) Reset() { p.IDs, p.Wts = p.IDs[:0], p.Wts[:0] }

// Append compiles one phrase onto p. resolve gives each distinct word its id
// and weight (Eq. 3.4's weight(w)); it is called once per distinct word, in
// phrase order. A phrase without words adds nothing.
func (p *Phrases) Append(words []string, resolve func(word string) (WordID, float64)) {
	if len(words) == 0 {
		return
	}
	head := len(p.IDs)
	p.IDs, p.Wts = append(p.IDs, 0), append(p.Wts, 0)
	var total float64
	for k, w := range words {
		if slices.Contains(words[:k], w) {
			continue
		}
		id, wt := resolve(w)
		p.IDs, p.Wts = append(p.IDs, id), append(p.Wts, wt)
		total += wt
	}
	p.IDs[head], p.Wts[head] = WordID(len(p.IDs)-head-1), total
}

// Phrase returns the phrase whose header is slot at — its word ids, their
// weights, its total weight — and the slot of the next phrase's header;
// next == len(p.IDs) after the last one.
func (p *Phrases) Phrase(at int) (ids []WordID, wts []float64, total float64, next int) {
	next = at + 1 + int(p.IDs[at])
	return p.IDs[at+1 : next], p.Wts[at+1 : next], p.Wts[at], next
}

// Index is a text's id → token positions table: what a Matcher is to
// strings, for words already mapped to ids. It is immutable once built and
// safe for concurrent use.
type Index struct {
	slots []indexSlot // open addressing, a power of two long, at most half full
	shift uint32
	pos   []int32 // token positions, grouped by word, ascending within a word
}

// indexSlot is one distinct word of the text; n == 0 marks a free slot.
type indexSlot struct {
	id     WordID
	off, n int32 // the word's positions are pos[off : off+n]
}

// NewIndex indexes a text given as the id of each of its tokens, in text
// order (the ids of the words NewMatcher would be given). NoWord tokens are
// skipped but keep their position.
func NewIndex(tokens []WordID) *Index {
	width := max(bits.Len(uint(2*len(tokens))), 1)
	ix := &Index{
		slots: make([]indexSlot, 1<<width),
		shift: 32 - uint32(width),
		pos:   make([]int32, len(tokens)),
	}
	for _, id := range tokens {
		if id != NoWord {
			ix.slot(id).n++
		}
	}
	// Counting sort: point every word past its run of pos, then fill the runs
	// from the text's end so that each ends up ascending.
	end := int32(0)
	for i := range ix.slots {
		end += ix.slots[i].n
		ix.slots[i].off = end
	}
	for i := len(tokens) - 1; i >= 0; i-- {
		if id := tokens[i]; id != NoWord {
			s := ix.slot(id)
			s.off--
			ix.pos[s.off] = int32(i)
		}
	}
	return ix
}

// slot returns id's slot, claiming a free one for an id the table does not
// hold yet.
func (ix *Index) slot(id WordID) *indexSlot {
	mask := uint32(len(ix.slots) - 1)
	h := uint32(id) * 0x9e3779b1 >> ix.shift
	for ix.slots[h].n != 0 && ix.slots[h].id != id {
		h = (h + 1) & mask
	}
	ix.slots[h].id = id
	return &ix.slots[h]
}

// positions returns the ascending token positions of id, nil when the text
// does not have the word.
func (ix *Index) positions(id WordID) []int32 {
	mask := uint32(len(ix.slots) - 1)
	for h := uint32(id) * 0x9e3779b1 >> ix.shift; ; h = (h + 1) & mask {
		s := &ix.slots[h]
		if s.n == 0 {
			return nil
		}
		if s.id == id {
			return ix.pos[s.off : s.off+s.n]
		}
	}
}

// idOccurrence pairs a token position with the index, among the phrase's
// words present in the text, of the word found there.
type idOccurrence struct{ pos, word int32 }

// Score evaluates Eq. 3.4 for one compiled phrase — distinct word ids in
// phrase order, their weights, and the weights' sum in that order — against
// the text. It returns exactly ScoreCover(m.FindCover(words), words, weight)
// of the string Matcher over the same text, to the last bit: the same float
// operations in the same order.
func (ix *Index) Score(ids []WordID, wts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	var occBuf [24]idOccurrence
	occs := occBuf[:0]
	var need int32
	var matched float64
	for k, id := range ids {
		if id == NoWord {
			continue
		}
		if at := ix.positions(id); at != nil {
			matched += wts[k]
			for _, pos := range at {
				occs = append(occs, idOccurrence{pos: pos, word: need})
			}
			need++
		}
	}
	if need == 0 {
		return 0
	}
	best := int32(1) // one word present: its shortest cover is one token
	if need > 1 {
		best = shortestCover(occs, need)
	}
	z := float64(need) / float64(best)
	frac := matched / total
	return z * frac * frac
}

// shortestCover returns the length of the shortest token window holding an
// occurrence of each of the need words: FindCover's sliding window.
func shortestCover(occs []idOccurrence, need int32) int32 {
	// A position holds one token, so the order is total.
	slices.SortFunc(occs, func(a, b idOccurrence) int { return int(a.pos - b.pos) })
	var countBuf [16]int32
	counts := countBuf[:]
	if int(need) > len(counts) {
		counts = make([]int32, need)
	}
	var have, lo int32
	best := int32(-1)
	for hi := range occs {
		if counts[occs[hi].word] == 0 {
			have++
		}
		counts[occs[hi].word]++
		for have == need {
			if span := occs[hi].pos - occs[lo].pos + 1; best < 0 || span < best {
				best = span
			}
			counts[occs[lo].word]--
			if counts[occs[lo].word] == 0 {
				have--
			}
			lo++
		}
	}
	return best
}

// Cover scores every phrase of ps against the text and returns the sum of
// the scores in phrase order (sim-k, Eq. 3.6) and the largest of them (the
// best single cover, Eq. 3.4).
func (ix *Index) Cover(ps *Phrases) (sum, best float64) {
	for at := 0; at < len(ps.IDs); {
		ids, wts, total, next := ps.Phrase(at)
		s := ix.Score(ids, wts, total)
		sum += s
		if s > best {
			best = s
		}
		at = next
	}
	return sum, best
}
