package relatedness

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"aida/internal/kb"
)

// allKinds are the measure kinds the persistence tests sweep.
var allKinds = []Kind{KindMW, KindKWCS, KindKPCS, KindKORE, KindKORELSHG, KindKORELSHF}

// warmScorer fills an engine with every pairwise value of the cluster KB
// under every kind and returns the entity set.
func warmScorer(s *Scorer) []kb.EntityID {
	_, music, physics := buildClusterKB()
	ents := append(append([]kb.EntityID{}, music...), physics...)
	for _, kind := range allKinds {
		for i := range ents {
			for j := i + 1; j < len(ents); j++ {
				s.Relatedness(kind, ents[i], ents[j])
			}
		}
	}
	return ents
}

// TestEngineSnapshotRoundTrip pins the warm-start contract: Save → Load
// reproduces the cache state (same interned profiles, same memoized pairs),
// the restored engine serves pure cache hits for previously computed pairs,
// and every value matches the donor bit for bit.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	k, _, _ := buildClusterKB()
	donor := NewScorer(k)
	ents := warmScorer(donor)
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	loaded, err := LoadScorer(bytes.NewReader(buf.Bytes()), k)
	if err != nil {
		t.Fatalf("LoadScorer: %v", err)
	}
	ds, ls := donor.Stats(), loaded.Stats()
	if ls.Profiles != ds.Profiles || ls.Pairs != ds.Pairs {
		t.Fatalf("restored cache shape (profiles=%d pairs=%d) != donor (profiles=%d pairs=%d)",
			ls.Profiles, ls.Pairs, ds.Profiles, ds.Pairs)
	}
	if ls.ProfileBytes != ds.ProfileBytes {
		t.Fatalf("restored profile bytes %d != donor %d", ls.ProfileBytes, ds.ProfileBytes)
	}
	if ls.Hits != 0 || ls.Misses != 0 {
		t.Fatalf("freshly restored engine should have zero traffic counters, got hits=%d misses=%d", ls.Hits, ls.Misses)
	}
	for _, kind := range allKinds {
		for i := range ents {
			for j := i + 1; j < len(ents); j++ {
				if got, want := loaded.Relatedness(kind, ents[i], ents[j]), donor.Relatedness(kind, ents[i], ents[j]); got != want {
					t.Fatalf("%v(%d,%d) = %v after restore, donor %v", kind, ents[i], ents[j], got, want)
				}
			}
		}
	}
	// Every value above must have come out of the restored cache.
	if st := loaded.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm-started engine recomputed values: hits=%d misses=%d", st.Hits, st.Misses)
	}
}

// TestEngineSnapshotCrossShardLayout pins snapshot portability across shard
// placements: the fingerprint covers content, not layout, so an unsharded
// process's snapshot warm-starts one serving kb.Shard(k, n) — at 4, and at
// 3, the count that does not divide the stripe count.
func TestEngineSnapshotCrossShardLayout(t *testing.T) {
	k, _, _ := buildClusterKB()
	donor := NewScorer(k)
	ents := warmScorer(donor)
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	for _, n := range []int{4, 3} {
		loaded, err := LoadScorer(bytes.NewReader(buf.Bytes()), kb.Shard(k, n))
		if err != nil {
			t.Fatalf("LoadScorer onto %d-shard view: %v", n, err)
		}
		if got, want := loaded.Stats().Profiles, donor.Stats().Profiles; got != want {
			t.Fatalf("%d shards: restored profiles = %d, want %d", n, got, want)
		}
		assertAllHits(t, loaded, donor, ents)
	}
}

// assertAllHits checks that every pairwise value of ents under every kind
// comes out of loaded's cache and equals the donor's bit for bit.
func assertAllHits(t *testing.T, loaded, donor *Scorer, ents []kb.EntityID) {
	t.Helper()
	for _, kind := range allKinds {
		for i := range ents {
			for j := i + 1; j < len(ents); j++ {
				if got, want := loaded.Relatedness(kind, ents[i], ents[j]), donor.Relatedness(kind, ents[i], ents[j]); got != want {
					t.Fatalf("%v(%d,%d) diverges after restore: %v vs %v", kind, ents[i], ents[j], got, want)
				}
			}
		}
	}
	if misses := loaded.Stats().Misses; misses != 0 {
		t.Fatalf("warm start recomputed %d values", misses)
	}
}

// TestEngineSnapshotReadsShardGroupedProfiles pins backward compatibility
// of the version-1 format: a writer over a 4-shard store used to record the
// shard count in the header and group the interned ids per KB shard. Such a
// stream, hand-built here, restores into the flat engine with every value
// a hit.
func TestEngineSnapshotReadsShardGroupedProfiles(t *testing.T) {
	k, _, _ := buildClusterKB()
	donor := NewScorer(k)
	ents := warmScorer(donor)
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	dec := gob.NewDecoder(&buf)
	var h snapshotHeader
	var body snapshotBody
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Profiles) != 1 {
		t.Fatalf("Save wrote %d profile groups, want 1", len(body.Profiles))
	}
	grouped := make([][]kb.EntityID, 4)
	for _, e := range body.Profiles[0] {
		g := kb.EntityShard(e, 4)
		grouped[g] = append(grouped[g], e)
	}
	body.Profiles = grouped
	old := struct {
		Magic         string
		Version       int
		KBFingerprint uint64
		KBShards      int
	}{h.Magic, h.Version, h.KBFingerprint, 4}
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	if err := enc.Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadScorer(&stream, k)
	if err != nil {
		t.Fatalf("LoadScorer of a 4-group snapshot: %v", err)
	}
	if got, want := loaded.Stats().Profiles, donor.Stats().Profiles; got != want {
		t.Fatalf("restored profiles = %d, want %d", got, want)
	}
	assertAllHits(t, loaded, donor, ents)
}

// TestEngineSnapshotSkipsMWRows pins the other half of version-1
// compatibility: builds that memoized MW wrote MW pair records. Save no
// longer writes one, even from an engine that served MW traffic; a stream
// that holds them, hand-built here, still restores — every other record
// installed, no MW record installed — and a malformed MW record is still
// rejected like any other.
func TestEngineSnapshotSkipsMWRows(t *testing.T) {
	k, _, _ := buildClusterKB()
	donor := NewScorer(k)
	ents := warmScorer(donor) // MW traffic included
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sorted := slices.Sorted(slices.Values(ents))
	mwRecords := 0
	old := corruptBody(t, buf.Bytes(), func(b *snapshotBody) {
		if len(b.Pairs) == 0 {
			t.Fatal("Save wrote no pair record")
		}
		for _, p := range b.Pairs {
			if p.Kind == KindMW {
				t.Fatalf("Save wrote an MW record: %+v", p)
			}
		}
		// MW is the lowest kind, so the old writer's MW records sort first.
		var mw []pairRecord
		for i, a := range sorted {
			for _, c := range sorted[i+1:] {
				mw = append(mw, pairRecord{Kind: KindMW, A: a, B: c, V: MW(k.Entity(a).InLinks, k.Entity(c).InLinks, k.NumEntities())})
			}
		}
		mwRecords = len(mw)
		b.Pairs = append(mw, b.Pairs...)
	})

	loaded, err := LoadScorer(bytes.NewReader(old), k)
	if err != nil {
		t.Fatalf("LoadScorer of a snapshot with %d MW records: %v", mwRecords, err)
	}
	ds, ls := donor.Stats(), loaded.Stats()
	if ls.Pairs != ds.Pairs || ls.Profiles != ds.Profiles {
		t.Fatalf("restored profiles=%d pairs=%d, want the donor's %d and %d (no MW record installed)",
			ls.Profiles, ls.Pairs, ds.Profiles, ds.Pairs)
	}
	assertAllHits(t, loaded, donor, ents)
	assertRejectsInvalidPairs(t, k, old)
}

// differentKB builds a KB whose content differs from the cluster KB, so its
// fingerprint must differ.
func differentKB() *kb.KB {
	b := kb.NewBuilder()
	a := b.AddEntity("Alpha", "misc")
	c := b.AddEntity("Beta", "misc")
	b.AddKeyphrase(a, "completely different phrase")
	b.AddKeyphrase(c, "another different phrase")
	b.AddLink(a, c)
	return b.Build()
}

// corrupt returns a scorer snapshot with its header re-encoded under the
// given mutation, followed by the original body bytes.
func corruptHeader(t *testing.T, full []byte, mutate func(*snapshotHeader)) []byte {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(full))
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("decode header of valid snapshot: %v", err)
	}
	var body snapshotBody
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("decode body of valid snapshot: %v", err)
	}
	mutate(&h)
	var out bytes.Buffer
	enc := gob.NewEncoder(&out)
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestEngineSnapshotErrors covers every rejection path: truncated streams,
// garbage, wrong magic, unsupported version and a KB-fingerprint mismatch
// must each return a descriptive error and leave the engine untouched and
// usable cold.
func TestEngineSnapshotErrors(t *testing.T) {
	k, music, physics := buildClusterKB()
	donor := NewScorer(k)
	warmScorer(donor)
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	full := buf.Bytes()

	// A snapshot of a different repository, for the fingerprint case.
	other := NewScorer(differentKB())
	other.Relatedness(KindKORE, 0, 1)
	var otherBuf bytes.Buffer
	if err := other.Save(&otherBuf); err != nil {
		t.Fatalf("Save other: %v", err)
	}

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"empty", nil, "read header"},
		{"garbage", []byte("not a gob stream at all"), "read header"},
		{"truncated-header", full[:3], "read header"},
		{"truncated-body", full[:len(full)-len(full)/4], "read body"},
		{"bad-magic", corruptHeader(t, full, func(h *snapshotHeader) { h.Magic = "something-else" }), "bad magic"},
		{"wrong-version", corruptHeader(t, full, func(h *snapshotHeader) { h.Version = snapshotVersion + 7 }), "unsupported format version"},
		{"stale-fingerprint", otherBuf.Bytes(), "fingerprint mismatch"},
		{"entity-out-of-range", corruptHeader(t, full, func(h *snapshotHeader) {}), ""}, // placeholder; replaced below
	}
	// Out-of-range entity ids: splice a body with an absurd id under a
	// valid header.
	cases[len(cases)-1].data = corruptBody(t, full, func(b *snapshotBody) {
		b.Profiles[0] = append(b.Profiles[0], kb.EntityID(1<<20))
	})
	cases[len(cases)-1].wantErr = "out of range"

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScorer(k)
			err := s.Restore(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("Restore(%s) succeeded, want error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Restore(%s) error %q does not mention %q", tc.name, err, tc.wantErr)
			}
			// The failed restore must leave the engine empty and fully
			// usable cold: same values as a never-touched engine.
			if st := s.Stats(); st.Profiles != 0 || st.Pairs != 0 {
				t.Fatalf("failed restore left state behind: %+v", st)
			}
			fresh := NewScorer(k)
			for _, kind := range allKinds {
				if got, want := s.Relatedness(kind, music[0], physics[0]), fresh.Relatedness(kind, music[0], physics[0]); got != want {
					t.Fatalf("engine unusable after failed restore: %v(%d,%d) = %v, want %v", kind, music[0], physics[0], got, want)
				}
			}
		})
	}
}

// corruptBody re-encodes a snapshot with its body mutated under the
// original (valid) header.
func corruptBody(t *testing.T, full []byte, mutate func(*snapshotBody)) []byte {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(full))
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	var body snapshotBody
	if err := dec.Decode(&body); err != nil {
		t.Fatal(err)
	}
	mutate(&body)
	var out bytes.Buffer
	enc := gob.NewEncoder(&out)
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// invalidPairCases are the mutations of a snapshot's first pair record that
// Restore must reject.
var invalidPairCases = []struct {
	name    string
	mutate  func(*snapshotBody)
	wantErr string
}{
	{"lsh-kind", func(b *snapshotBody) { b.Pairs[0].Kind = KindKORELSHF }, "invalid pair-cache kind"},
	{"unknown-kind", func(b *snapshotBody) { b.Pairs[0].Kind = Kind(99) }, "invalid pair-cache kind"},
	{"unordered", func(b *snapshotBody) { b.Pairs[0].A, b.Pairs[0].B = b.Pairs[0].B, b.Pairs[0].A }, "invalid pair"},
	{"self-pair", func(b *snapshotBody) { b.Pairs[0].B = b.Pairs[0].A }, "invalid pair"},
	{"out-of-range", func(b *snapshotBody) { b.Pairs[0].B = 1 << 20 }, "invalid pair"},
}

// assertRejectsInvalidPairs runs invalidPairCases against the snapshot:
// each must fail with its error and leave the engine empty.
func assertRejectsInvalidPairs(t *testing.T, k *kb.KB, full []byte) {
	t.Helper()
	for _, tc := range invalidPairCases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScorer(k)
			err := s.Restore(bytes.NewReader(corruptBody(t, full, tc.mutate)))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Restore = %v, want error mentioning %q", err, tc.wantErr)
			}
			if st := s.Stats(); st.Profiles != 0 || st.Pairs != 0 {
				t.Fatalf("failed restore left state behind: %+v", st)
			}
		})
	}
}

// TestEngineSnapshotInvalidPairRecords rejects pair records with invalid
// kinds or unordered/out-of-range entities.
func TestEngineSnapshotInvalidPairRecords(t *testing.T) {
	k, _, _ := buildClusterKB()
	donor := NewScorer(k)
	warmScorer(donor)
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatal(err)
	}
	assertRejectsInvalidPairs(t, k, buf.Bytes())
}

// TestEngineSaveToFailingWriter covers the Save error path.
func TestEngineSaveToFailingWriter(t *testing.T) {
	k, _, _ := buildClusterKB()
	s := NewScorer(k)
	if err := s.Save(failingWriter{}); err == nil {
		t.Fatal("Save to failing writer succeeded, want error")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errRefused
}

type refusedError struct{}

func (refusedError) Error() string { return "write refused" }

var errRefused = refusedError{}
