// Package relatedness implements the semantic entity-relatedness measures of
// Chapter 4: the link-based Milne–Witten measure (MW, Eq. 3.7), the
// keyterm-cosine baselines KWCS and KPCS (Sec. 4.3.2), and the keyphrase
// overlap relatedness KORE (Sec. 4.3.3) with its two-stage min-hash/LSH
// approximations KORE^LSH-G and KORE^LSH-F (Sec. 4.4).
//
// All measures return values in [0,1]; higher means more related.
//
// The long-lived entry point is the Scorer: a sharded, concurrency-safe
// engine bound to one KB that interns entity Profiles, memoizes the pair
// values of the keyphrase kinds across documents (a cold KORE pair costs
// microseconds; MW is a ~100 ns sorted merge, cheaper than a lookup among
// |E|²/2 possible keys, so it is computed on every call), and reports its
// cache state via Stats. The free functions (MW, KORE, KeywordCosine, ...)
// are the stateless primitives underneath, useful for ad-hoc keyphrase sets
// that are not KB entities; LSHFilter prunes the pairs of such sets for the
// LSH kinds.
package relatedness

import (
	"math"
	"sort"

	"aida/internal/kb"
	"aida/internal/pool"
)

// Weighter assigns a weight to a keyword; KORE uses the global keyword IDF
// (Sec. 4.5.2: "MI weights for keyphrases and IDF weights for keywords
// works best").
type Weighter func(word string) float64

// MW computes the Milne–Witten relatedness (Eq. 3.7) from the in-link sets
// of two entities and the collection size n:
//
//	MW(e,f) = 1 - (log max(|Ie|,|If|) - log |Ie∩If|) / (log n - log min(|Ie|,|If|))
//
// clamped to [0,1]; entities without common in-links are unrelated.
func MW(inA, inB []kb.EntityID, n int) float64 {
	inter := kb.IntersectSortedSize(inA, inB)
	if inter == 0 || n <= 1 {
		return 0
	}
	la, lb := float64(len(inA)), float64(len(inB))
	if la == 0 || lb == 0 {
		return 0
	}
	maxL, minL := math.Max(la, lb), math.Min(la, lb)
	den := math.Log(float64(n)) - math.Log(minL)
	if den <= 0 {
		return 1
	}
	v := 1 - (math.Log(maxL)-math.Log(float64(inter)))/den
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// phraseData is a keyphrase pre-processed for overlap computation.
type phraseData struct {
	words     []string // sorted distinct content words
	weightSum float64  // Σ weight(w) over words
	mi        float64  // phrase weight ϕ (µ MI)
}

// Profile is an entity's keyphrase set pre-processed for the pairwise
// measures. Building a Profile is O(total words); comparing two profiles
// touches only phrases sharing at least one word.
type Profile struct {
	phrases       []phraseData
	wordToPhrases map[string][]int
	miSum         float64
	weight        Weighter
}

// NewProfile pre-processes a keyphrase set under the given keyword weighter.
func NewProfile(phrases []kb.Keyphrase, weight Weighter) *Profile {
	p := &Profile{
		phrases:       make([]phraseData, 0, len(phrases)),
		wordToPhrases: make(map[string][]int),
		weight:        weight,
	}
	for _, ph := range phrases {
		words := dedupSorted(ph.Words)
		if len(words) == 0 {
			continue
		}
		var sum float64
		for _, w := range words {
			sum += weight(w)
		}
		mi := ph.MI
		if mi <= 0 {
			// Phrases with vanishing MI still identify the entity weakly;
			// keep a small floor so profiles of link-poor entities are
			// not empty.
			mi = 1e-3
		}
		idx := len(p.phrases)
		p.phrases = append(p.phrases, phraseData{words: words, weightSum: sum, mi: mi})
		for _, w := range words {
			p.wordToPhrases[w] = append(p.wordToPhrases[w], idx)
		}
		p.miSum += mi
	}
	return p
}

// Len returns the number of phrases in the profile.
func (p *Profile) Len() int { return len(p.phrases) }

func dedupSorted(words []string) []string {
	out := append([]string(nil), words...)
	sort.Strings(out)
	j := 0
	for i, w := range out {
		if i == 0 || w != out[j-1] {
			out[j] = w
			j++
		}
	}
	return out[:j]
}

// phraseOverlap computes PO(p,q) of Eq. 4.3 with shared global word weights:
// the weighted Jaccard similarity of the two word sets.
func phraseOverlap(a, b *phraseData, weight Weighter) float64 {
	var inter float64
	i, j := 0, 0
	for i < len(a.words) && j < len(b.words) {
		switch {
		case a.words[i] < b.words[j]:
			i++
		case a.words[i] > b.words[j]:
			j++
		default:
			inter += weight(a.words[i])
			i++
			j++
		}
	}
	union := a.weightSum + b.weightSum - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// koreScratch is the per-call phrase-pair dedup table of KOREProfiles: a
// stamp array over b's phrase indices, so "seen this pair" is one array
// read instead of a per-call map. cur is bumped per a-phrase; a slot is
// seen iff its stamp equals cur, so no clearing between phrases is needed.
type koreScratch struct {
	stamp []uint32
	cur   uint32
}

var koreBufs = pool.Scratch[koreScratch]{
	New: func() *koreScratch { return &koreScratch{} },
}

// KOREProfiles computes the keyphrase overlap relatedness (Eq. 4.4) of two
// profiles:
//
//	KORE(e,f) = Σ_{p,q} PO(p,q)² · min(ϕe(p), ϕf(q)) / (Σ ϕe + Σ ϕf)
func KOREProfiles(a, b *Profile) float64 {
	den := a.miSum + b.miSum
	if den <= 0 {
		return 0
	}
	// Enumerate phrase pairs sharing at least one word, each pair once.
	var num float64
	sc := koreBufs.Get()
	if len(sc.stamp) < len(b.phrases) {
		sc.stamp = make([]uint32, len(b.phrases))
		sc.cur = 0
	}
	for pi := range a.phrases {
		pa := &a.phrases[pi]
		sc.cur++
		if sc.cur == 0 { // stamp wrapped: reset the table once
			clear(sc.stamp)
			sc.cur = 1
		}
		for _, w := range pa.words {
			for _, qi := range b.wordToPhrases[w] {
				if sc.stamp[qi] == sc.cur {
					continue
				}
				sc.stamp[qi] = sc.cur
				qb := &b.phrases[qi]
				po := phraseOverlap(pa, qb, a.weight)
				if po <= 0 {
					continue
				}
				num += float64(po * po * math.Min(pa.mi, qb.mi))
			}
		}
	}
	koreBufs.Put(sc)
	v := num / den
	if v > 1 {
		v = 1
	}
	return v
}

// KORE computes keyphrase overlap relatedness on raw keyphrase sets.
func KORE(a, b []kb.Keyphrase, weight Weighter) float64 {
	return KOREProfiles(NewProfile(a, weight), NewProfile(b, weight))
}

// KeywordCosine computes the KWCS baseline (Sec. 4.3.2): cosine similarity
// of keyword vectors. Keyword weights take the phrase weights into account
// by multiplying the keyword weight with the mean MI of the phrases the word
// appears in.
func KeywordCosine(a, b []kb.Keyphrase, weight Weighter) float64 {
	return cosine(keywordVector(a, weight), keywordVector(b, weight))
}

func keywordVector(phrases []kb.Keyphrase, weight Weighter) map[string]float64 {
	sum := map[string]float64{}
	cnt := map[string]int{}
	for _, p := range phrases {
		mi := p.MI
		if mi <= 0 {
			mi = 1e-3
		}
		for _, w := range dedupSorted(p.Words) {
			sum[w] += mi
			cnt[w]++
		}
	}
	vec := make(map[string]float64, len(sum))
	for w, s := range sum {
		vec[w] = weight(w) * s / float64(cnt[w])
	}
	return vec
}

// KeyphraseCosine computes the KPCS baseline: cosine similarity of whole-
// phrase vectors under MI weights (phrases are atomic units; no partial
// matching).
func KeyphraseCosine(a, b []kb.Keyphrase) float64 {
	return cosine(phraseVector(a), phraseVector(b))
}

func phraseVector(phrases []kb.Keyphrase) map[string]float64 {
	vec := make(map[string]float64, len(phrases))
	for _, p := range phrases {
		mi := p.MI
		if mi <= 0 {
			mi = 1e-3
		}
		key := joinWords(p.Words)
		if key == "" {
			continue
		}
		if mi > vec[key] {
			vec[key] = mi
		}
	}
	return vec
}

func joinWords(words []string) string {
	ws := dedupSorted(words)
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// cosine computes the cosine similarity of two sparse vectors. It iterates
// the smaller map directly for the dot product instead of materializing and
// sorting both key sets (the former hot-path cost: two string slices plus
// two string sorts per pairwise call). Partial sums are accumulated in
// ascending value order, so the result is bit-for-bit deterministic
// regardless of map iteration order. Note the accumulation order differs
// from the pre-refactor sorted-key order, so individual values may differ
// from the old implementation in the last ulp (exactly equal whenever the
// additions are exact); each implementation is self-deterministic.
func cosine(a, b map[string]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	buf := make([]float64, 0, len(b))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			buf = append(buf, va*vb)
		}
	}
	dot := orderedSum(buf)
	if dot == 0 {
		return 0
	}
	buf = buf[:0]
	for _, va := range a {
		buf = append(buf, va*va)
	}
	na := orderedSum(buf)
	buf = buf[:0]
	for _, vb := range b {
		buf = append(buf, vb*vb)
	}
	nb := orderedSum(buf)
	if na == 0 || nb == 0 {
		return 0
	}
	v := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if v > 1 {
		v = 1
	}
	return v
}

// orderedSum sums the values in ascending order, making the accumulated
// float64 independent of the (randomized) map iteration order that
// produced them. The slice is sorted in place.
func orderedSum(xs []float64) float64 {
	sort.Float64s(xs)
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
