package relatedness

import (
	"sort"
	"sync"

	"aida/internal/kb"
	"aida/internal/minhash"
)

// Two-stage hashing parameters (Sec. 4.4.2).
//
// Stage one groups near-duplicate keyphrases: each phrase's word set is
// sketched with 4 min-hash rows, banded into 2 bands of 2 rows; each phrase
// is represented by its 2 bucket ids. Stage two groups related entities:
// each entity's set of phrase-bucket ids is sketched and banded —
// KORE^LSH-G with 200 bands × 1 row (recall-oriented), KORE^LSH-F with
// 1000 bands × 2 rows (precision-oriented, prunes more pairs).
const (
	stage1SketchLen = 4
	stage1Bands     = 2
	stage1Rows      = 2

	lshGBands = 200
	lshGRows  = 1
	lshFBands = 1000
	lshFRows  = 2

	stage1Seed = 0x5eed1
	stage2Seed = 0x5eed2
)

// LSHFilter prunes entity pairs for KORE using the two-stage hashing
// scheme: stage-one phrase bucketing plus stage-two entity sketching, with
// process-wide sketch memoization. It works on keyphrase sets, not on a
// KB: disambiguation candidates carry their own keyphrases.
type LSHFilter struct {
	stage1  *minhash.Sketcher
	stage1l minhash.LSH
	stage2  *minhash.Sketcher
	stage2l minhash.LSH
}

// NewLSHFilter creates a filter for the given KORE LSH variant
// (KindKORELSHG or KindKORELSHF).
func NewLSHFilter(kind Kind) *LSHFilter {
	bands, rows := lshGBands, lshGRows
	if kind == KindKORELSHF {
		bands, rows = lshFBands, lshFRows
	}
	return &LSHFilter{
		stage1:  minhash.NewSketcher(stage1SketchLen, stage1Seed),
		stage1l: minhash.LSH{Bands: stage1Bands, Rows: stage1Rows},
		stage2:  minhash.NewSketcher(bands*rows, stage2Seed),
		stage2l: minhash.LSH{Bands: bands, Rows: rows},
	}
}

// PhraseBuckets computes the stage-one bucket ids for a keyphrase set
// (2 per phrase). Exposed so emerging-entity placeholders, which are not in
// the KB, can participate in the same scheme.
func PhraseBuckets(stage1 *minhash.Sketcher, lsh minhash.LSH, phrases []kb.Keyphrase) []uint64 {
	set := make(map[uint64]bool)
	for _, p := range phrases {
		if len(p.Words) == 0 {
			continue
		}
		sig := stage1.SketchStrings(p.Words)
		for _, k := range lsh.BucketKeys(sig) {
			set[k] = true
		}
	}
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PairsOfSets returns the index pairs of sets sharing at least one
// stage-two bucket; only these pairs' exact KORE values are computed
// (Sec. 4.4.2). Stage-two sketches are memoized process-wide, keyed by the
// phrase-set content hash, so repeated disambiguation of the same candidate
// entities (the common case over a corpus) pays the sketching cost only
// once.
func (f *LSHFilter) PairsOfSets(sets [][]kb.Keyphrase) [][2]int {
	ix := minhash.NewIndex(f.stage2l)
	for i, phrases := range sets {
		ix.Add(i, f.sketchOfSet(phrases))
	}
	return ix.CandidatePairs()
}

// sketchCache memoizes stage-two sketches across filters with identical
// parameters. Keys hash the full phrase-set content plus the LSH geometry,
// so distinct keyphrase sets can never alias (up to 64-bit collisions).
var sketchCache sync.Map // uint64 → []uint64

func (f *LSHFilter) sketchOfSet(phrases []kb.Keyphrase) []uint64 {
	key := uint64(f.stage2l.Bands)<<32 ^ uint64(f.stage2l.Rows)
	for _, p := range phrases {
		key = key*1099511628211 ^ minhash.HashString(p.Phrase)
	}
	if v, ok := sketchCache.Load(key); ok {
		return v.([]uint64)
	}
	sig := f.stage2.Sketch(PhraseBuckets(f.stage1, f.stage1l, phrases))
	sketchCache.Store(key, sig)
	return sig
}
