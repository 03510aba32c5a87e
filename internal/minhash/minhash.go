// Package minhash implements min-hash sketches and banded locality-sensitive
// hashing, the two building blocks of KORE's two-stage hashing scheme
// (Sec. 4.4.2).
//
// Stage one groups near-duplicate keyphrases: each phrase (a set of word
// ids) is sketched with a few min-hash rows and banded so that phrases with
// high Jaccard similarity collide. Stage two groups related entities: each
// entity, represented by its set of stage-one bucket ids, is sketched and
// banded again; the exact KORE measure is only computed for entity pairs
// sharing at least one bucket.
package minhash

import "sort"

// splitmix64 is a strong 64-bit mixer; combined with per-row seeds it gives
// the independent hash family required by min-hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString hashes a string to a 64-bit id (FNV-1a, inlined to avoid
// allocation), for use as a set element in sketches.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Sketcher computes min-hash signatures of a fixed length with a fixed seed.
type Sketcher struct {
	seeds []uint64
}

// NewSketcher returns a Sketcher producing signatures of the given length.
// The seed makes the hash family reproducible.
func NewSketcher(length int, seed uint64) *Sketcher {
	s := &Sketcher{seeds: make([]uint64, length)}
	x := seed
	for i := range s.seeds {
		x = splitmix64(x + uint64(i) + 1)
		s.seeds[i] = x
	}
	return s
}

// Length returns the signature length.
func (s *Sketcher) Length() int { return len(s.seeds) }

// Sketch computes the min-hash signature of the element set. An empty set
// yields a signature of all ^uint64(0), which never collides with non-empty
// signatures in banding (bucket keys include the band index).
func (s *Sketcher) Sketch(set []uint64) []uint64 {
	sig := make([]uint64, len(s.seeds))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, el := range set {
		for i, seed := range s.seeds {
			if h := splitmix64(el ^ seed); h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// SketchStrings hashes the strings and sketches the resulting set.
func (s *Sketcher) SketchStrings(set []string) []uint64 {
	ids := make([]uint64, len(set))
	for i, el := range set {
		ids[i] = HashString(el)
	}
	return s.Sketch(ids)
}

// LSH bands signatures into buckets: signatures agreeing on all rows of at
// least one band land in a common bucket. The dissertation sums the row
// hashes within a band ("combining the two ids in each band by summing up
// their ids, losing the order among them", Sec. 4.4.2), which this
// implementation follows.
type LSH struct {
	Bands int
	Rows  int
}

// BucketKeys returns one bucket key per band for the signature, which must
// have length ≥ Bands*Rows.
func (l LSH) BucketKeys(sig []uint64) []uint64 {
	keys := make([]uint64, l.Bands)
	for b := 0; b < l.Bands; b++ {
		var sum uint64
		for r := 0; r < l.Rows; r++ {
			sum += sig[b*l.Rows+r]
		}
		// Mix the band index in so identical sums in different bands
		// do not alias.
		keys[b] = splitmix64(sum ^ (uint64(b+1) * 0x9e3779b97f4a7c15))
	}
	return keys
}

// Index groups items by their LSH buckets and enumerates candidate pairs.
type Index struct {
	lsh     LSH
	buckets map[uint64][]int
	n       int
}

// NewIndex creates an empty LSH index.
func NewIndex(lsh LSH) *Index {
	return &Index{lsh: lsh, buckets: make(map[uint64][]int)}
}

// Add inserts an item id with its signature.
func (ix *Index) Add(id int, sig []uint64) {
	for _, k := range ix.lsh.BucketKeys(sig) {
		ix.buckets[k] = append(ix.buckets[k], id)
	}
	ix.n++
}

// Len returns the number of items added.
func (ix *Index) Len() int { return ix.n }

// CandidatePairs returns the deduplicated id pairs (a < b) sharing at least
// one bucket, sorted for determinism.
func (ix *Index) CandidatePairs() [][2]int {
	seen := make(map[[2]int]bool)
	for _, ids := range ix.buckets {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				seen[[2]int{a, b}] = true
			}
		}
	}
	pairs := make([][2]int, 0, len(seen))
	for p := range seen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// Buckets returns the bucket contents (for tests and diagnostics).
func (ix *Index) Buckets() map[uint64][]int { return ix.buckets }
