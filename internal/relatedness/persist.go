package relatedness

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sort"

	"aida/internal/kb"
)

// Engine snapshots make the Scorer durable: Save persists which profiles
// are interned and every memoized pair value, Restore (or LoadScorer)
// rebuilds that state into a fresh process so it serves its first request
// with a hot engine. The format is versioned gob:
//
//	header: magic, format version, KB fingerprint
//	body:   interned entity ids in groups (this build writes one group;
//	        earlier version-1 writers wrote one per KB shard, and any
//	        number is read), memoized pairs as sorted (kind, a, b, value)
//	        records
//
// Save writes no MW record (MW is not memoized); a version-1 snapshot from a
// build that memoized it still loads, its MW records validated and dropped.
//
// Invalidation rules: a snapshot is only as good as the KB it was computed
// from, so Restore rejects a header whose fingerprint differs from the
// loading Store's (stale snapshot, different repository content). The
// fingerprint is shard-layout-independent, so a snapshot written under one
// shard placement warm-starts a process under any other. Profiles
// themselves are not serialized — they are pure functions of the KB, so the
// snapshot records *which* entities were interned and rebuilds the rest,
// keeping snapshots small and byte-identity trivial.
//
// Restore is all-or-nothing: every record is decoded and validated before
// the engine is touched, so a truncated, corrupt, mis-versioned or stale
// stream returns an error and leaves the Scorer exactly as it was (usable
// cold).
const (
	snapshotMagic   = "aida-engine-snapshot"
	snapshotVersion = 1
)

// snapshotHeader is decoded (and validated) before the body, so version and
// fingerprint mismatches fail fast without parsing potentially large or
// incompatible payloads.
type snapshotHeader struct {
	Magic         string
	Version       int
	KBFingerprint uint64
}

// pairRecord is one memoized pair value. Kind is the canonical cache kind
// (LSH variants share KORE's rows and are never written).
type pairRecord struct {
	Kind Kind
	A, B kb.EntityID
	V    float64
}

// snapshotBody carries the cache contents. Profiles holds the interned
// entity ids in groups, each ascending (Save writes a single group); Pairs
// is sorted by (kind, a, b). Both orders make snapshot bytes deterministic
// for a given cache state.
type snapshotBody struct {
	Profiles [][]kb.EntityID
	Pairs    []pairRecord
}

// Save writes the engine's cache state — interned profile ids and all
// memoized pair values — as a versioned snapshot bound to
// the KB's fingerprint. Safe for concurrent use with scoring traffic; the
// snapshot is a consistent-enough cut for warm-starting (entries inserted
// mid-save may or may not be included, and every value is pure, so any cut
// is correct).
func (s *Scorer) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	err := enc.Encode(snapshotHeader{
		Magic:         snapshotMagic,
		Version:       snapshotVersion,
		KBFingerprint: s.kb.Fingerprint(),
	})
	if err != nil {
		return fmt.Errorf("engine snapshot: write header: %w", err)
	}
	var interned []kb.EntityID
	for i := range s.profiles {
		sh := &s.profiles[i]
		sh.mu.RLock()
		for e := range sh.m {
			interned = append(interned, e)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(interned)
	body := snapshotBody{Profiles: [][]kb.EntityID{interned}}
	for i := range s.pairs {
		sh := &s.pairs[i]
		sh.mu.RLock()
		for key, v := range sh.m {
			body.Pairs = append(body.Pairs, pairRecord{Kind: key.kind, A: key.a, B: key.b, V: v})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(body.Pairs, func(i, j int) bool {
		a, b := body.Pairs[i], body.Pairs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	if err := enc.Encode(body); err != nil {
		return fmt.Errorf("engine snapshot: write body: %w", err)
	}
	return nil
}

// Restore loads a snapshot written by Save into this engine, merging it
// with whatever is already cached (existing entries win; every value is
// pure, so merge order cannot change results). The stream is fully decoded
// and validated first — magic, format version, KB fingerprint, entity-id
// ranges — and any failure returns a descriptive error with the Scorer
// untouched and usable cold.
func (s *Scorer) Restore(r io.Reader) error {
	dec := gob.NewDecoder(r)
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("engine snapshot: read header: %w", err)
	}
	if h.Magic != snapshotMagic {
		return fmt.Errorf("engine snapshot: bad magic %q (not an engine snapshot)", h.Magic)
	}
	if h.Version != snapshotVersion {
		return fmt.Errorf("engine snapshot: unsupported format version %d (this build reads version %d)", h.Version, snapshotVersion)
	}
	if fp := s.kb.Fingerprint(); h.KBFingerprint != fp {
		return fmt.Errorf("engine snapshot: KB fingerprint mismatch: snapshot %016x, loaded KB %016x (stale snapshot for different repository content)", h.KBFingerprint, fp)
	}
	var body snapshotBody
	if err := dec.Decode(&body); err != nil {
		return fmt.Errorf("engine snapshot: read body: %w", err)
	}
	n := s.kb.NumEntities()
	for _, group := range body.Profiles {
		for _, e := range group {
			if e < 0 || int(e) >= n {
				return fmt.Errorf("engine snapshot: profile entity id %d out of range [0,%d)", e, n)
			}
		}
	}
	for _, p := range body.Pairs {
		if !p.Kind.Valid() || p.Kind.IsLSH() {
			return fmt.Errorf("engine snapshot: invalid pair-cache kind %d", int(p.Kind))
		}
		if p.A < 0 || int(p.A) >= n || p.B < 0 || int(p.B) >= n || p.A >= p.B {
			return fmt.Errorf("engine snapshot: invalid pair (%d, %d) for repository of %d entities", p.A, p.B, n)
		}
	}

	// Validation passed: install. Profiles are rebuilt from the KB (pure)
	// and interned into this engine's stripes, however the writer grouped
	// them.
	for _, group := range body.Profiles {
		for _, e := range group {
			s.Profile(e)
		}
	}
	for _, p := range body.Pairs {
		if p.Kind == KindMW { // from a build that memoized MW
			continue
		}
		key := pairKey{kind: p.Kind, a: p.A, b: p.B}
		sh := &s.pairs[key.shard()]
		sh.mu.Lock()
		if _, ok := sh.m[key]; !ok {
			sh.m[key] = p.V
		}
		sh.mu.Unlock()
	}
	return nil
}

// LoadScorer reads a snapshot written by (*Scorer).Save and returns a warm
// engine bound to store. The snapshot must have been computed from the same
// repository content (the KB fingerprint is checked; shard placement may
// differ). On error the returned engine is nil; construct a cold one with
// NewScorer instead.
func LoadScorer(r io.Reader, store kb.Store) (*Scorer, error) {
	s := NewScorer(store)
	if err := s.Restore(r); err != nil {
		return nil, err
	}
	return s, nil
}
