package kb

import (
	"math"
	"sort"
	"sync"
)

// Fingerprinting gives every Store a deterministic content hash so derived
// state persisted next to the KB (notably engine snapshots, see
// internal/relatedness) can be checked against the KB it was computed from:
// a snapshot carrying a different fingerprint was built from different
// repository content and must be rejected as stale.
//
// The hash walks the *logical* content through the Store read surface only
// — entities in id order, dictionary rows in sorted-name order, candidate
// priors bit-for-bit — so a KB, an overlay equal to its rebuild and a
// remote router over either agree on the fingerprint (the conformance
// contract of Store makes their read surfaces byte-identical). Shard
// count, map layout and build order never influence the value.

// fnvHasher accumulates the 64-bit FNV-1a fingerprint over the canonical
// content walk.
type fnvHasher uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (h *fnvHasher) byte(b byte) {
	*h = (*h ^ fnvHasher(b)) * fnvPrime64
}

func (h *fnvHasher) uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnvHasher) int(v int) { h.uint64(uint64(int64(v))) }

func (h *fnvHasher) float(v float64) { h.uint64(math.Float64bits(v)) }

// str hashes the length before the bytes so concatenations can't collide
// ("ab","c" vs "a","bc").
func (h *fnvHasher) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnvHasher) ids(ids []EntityID) {
	h.int(len(ids))
	for _, id := range ids {
		h.uint64(uint64(int64(id)))
	}
}

// fingerprintOf computes the canonical content hash of a Store. Cost is one
// full walk of the repository and dictionary — the same order as loading or
// saving a KB snapshot, so callers cache the value per Store.
func fingerprintOf(s Store) uint64 {
	h := fnvHasher(fnvOffset64)
	n := s.NumEntities()
	h.int(n)
	for id := 0; id < n; id++ {
		e := s.Entity(EntityID(id))
		h.str(e.Name)
		h.str(e.Domain)
		h.int(len(e.Types))
		for _, t := range e.Types {
			h.str(t)
		}
		h.ids(e.InLinks)
		h.ids(e.OutLinks)
		h.int(len(e.Keyphrases))
		for i := range e.Keyphrases {
			kp := &e.Keyphrases[i]
			h.str(kp.Phrase)
			h.int(len(kp.Words))
			for _, w := range kp.Words {
				h.str(w)
				// The keyword IDF weights feed directly into profile
				// construction and KORE; hash them where they are consumed.
				h.float(s.WordIDF(w))
			}
			h.float(kp.MI)
			h.float(kp.IDF)
			h.float(s.PhraseIDF(kp.Phrase))
		}
		words := make([]string, 0, len(e.KeywordNPMI))
		for w := range e.KeywordNPMI {
			words = append(words, w)
		}
		sort.Strings(words)
		h.int(len(words))
		for _, w := range words {
			h.str(w)
			h.float(e.KeywordNPMI[w])
		}
	}
	names := s.Names()
	h.int(len(names))
	for _, name := range names {
		h.str(name)
		cands := s.Candidates(name)
		h.int(len(cands))
		for _, c := range cands {
			h.uint64(uint64(int64(c.Entity)))
			h.int(c.Count)
			h.float(c.Prior)
		}
	}
	return uint64(h)
}

// fingerprintOnce memoizes the walk per Store instance (Stores are
// immutable after construction, so the value never goes stale).
type fingerprintOnce struct {
	once sync.Once
	v    uint64
}

func (f *fingerprintOnce) of(s Store) uint64 {
	f.once.Do(func() { f.v = fingerprintOf(s) })
	return f.v
}

// Fingerprint returns the KB's deterministic content hash. Two KBs with the
// same logical content (entities, links, keyphrase weights, dictionary rows
// and global IDF statistics) have the same fingerprint regardless of how
// they were built or loaded.
func (k *KB) Fingerprint() uint64 { return k.fp.of(k) }
