package live

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aida"
	"aida/internal/kb"
)

// testKB builds a tiny music-domain repository: three entities with
// cross-links and keyphrases, for applying journaled deltas to.
func testKB() *kb.KB {
	b := kb.NewBuilder()
	jp := b.AddEntity("Jimmy Page", "music", "person")
	lz := b.AddEntity("Led Zeppelin", "music", "band")
	rp := b.AddEntity("Robert Plant", "music", "person")
	b.AddName("Page", jp, 10)
	b.AddName("Zeppelin", lz, 5)
	b.AddName("Plant", rp, 5)
	b.AddLink(jp, lz)
	b.AddLink(lz, jp)
	b.AddLink(rp, lz)
	b.AddLink(lz, rp)
	b.AddKeyphrase(jp, "English rock guitarist")
	b.AddKeyphrase(jp, "hard rock")
	b.AddKeyphrase(lz, "hard rock")
	b.AddKeyphrase(lz, "English rock band")
	b.AddKeyphrase(rp, "rock vocalist")
	return b.Build()
}

func journalDeltas() []*kb.Delta {
	return []*kb.Delta{
		{BaseEntities: 3, Entities: []kb.NewEntity{{Name: "Novatrix Sound", Domain: "emerging"}},
			Rows: []kb.RowAddition{{Surface: "Novatrix", Entity: 3, Count: 4}}},
		{BaseEntities: 4, Links: []kb.LinkAddition{{Src: 3, Dst: 0}},
			PhraseIDF: map[string]float64{"synthwave pioneers": 2.5}},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	want := journalDeltas()
	for _, d := range want {
		if err := j.Append(d); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var got []*kb.Delta
	applied, truncated, err := ReplayJournal(path, func(d *kb.Delta) error {
		got = append(got, d)
		return nil
	})
	if err != nil || truncated || applied != len(want) {
		t.Fatalf("ReplayJournal = (%d, %v, %v), want (%d, false, nil)", applied, truncated, err, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed deltas differ:\n got %+v\nwant %+v", got, want)
	}

	// Reopening appends after the existing frames — the file format stays
	// replayable across restarts.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := j2.Append(want[0]); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	j2.Close()
	applied, _, err = ReplayJournal(path, func(*kb.Delta) error { return nil })
	if err != nil || applied != 3 {
		t.Fatalf("replay after reopen = (%d, %v), want (3, nil)", applied, err)
	}
}

func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	d := journalDeltas()[0]
	if err := j.Append(d); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()

	// Simulate a crash mid-append: a length prefix promising more bytes
	// than the file holds.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	applied, truncated, err := ReplayJournal(path, func(*kb.Delta) error { return nil })
	if err != nil || !truncated || applied != 1 {
		t.Fatalf("ReplayJournal over torn tail = (%d, %v, %v), want (1, true, nil)", applied, truncated, err)
	}

	// Reopening truncates the torn tail; a fresh append lands cleanly.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if err := j2.Append(d); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	j2.Close()
	applied, truncated, err = ReplayJournal(path, func(*kb.Delta) error { return nil })
	if err != nil || truncated || applied != 2 {
		t.Fatalf("replay after repair = (%d, %v, %v), want (2, false, nil)", applied, truncated, err)
	}
}

func TestJournalMissingFile(t *testing.T) {
	applied, truncated, err := ReplayJournal(filepath.Join(t.TempDir(), "absent.journal"), func(*kb.Delta) error {
		t.Fatal("apply called for a missing journal")
		return nil
	})
	if applied != 0 || truncated || err != nil {
		t.Fatalf("ReplayJournal(missing) = (%d, %v, %v), want (0, false, nil)", applied, truncated, err)
	}
}

func TestJournalBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Error("OpenJournal accepted a foreign file")
	}
	if _, _, err := ReplayJournal(path, func(*kb.Delta) error { return nil }); err == nil {
		t.Error("ReplayJournal accepted a foreign file")
	}
}

func TestJournalCorruptFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.journal")
	frame := []byte{0x00, 0x00, 0x00, 0x04, 0xde, 0xad, 0xbe, 0xef}
	if err := os.WriteFile(path, append(append([]byte{}, journalMagic...), frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayJournal(path, func(*kb.Delta) error { return nil }); err == nil {
		t.Error("ReplayJournal accepted a frame that does not decode")
	}
}

// TestJournalApply pins the applier's contract: a rejected delta changes
// and records nothing, a failed append leaves the apply standing and says
// so, and a nil journal applies without recording.
func TestJournalApply(t *testing.T) {
	sys := aida.New(testKB())
	// entityDelta adds one entity, linked to Jimmy Page and reachable by
	// its name, on top of the serving store.
	entityDelta := func(name string) *kb.Delta {
		st := sys.Store()
		id := kb.EntityID(st.NumEntities())
		return &kb.Delta{
			BaseEntities: int(id),
			Entities:     []kb.NewEntity{{Name: name, Keyphrases: st.Entity(0).Keyphrases}},
			Rows:         []kb.RowAddition{{Surface: name, Entity: id, Count: 3}},
			Links:        []kb.LinkAddition{{Src: id, Dst: 0}},
		}
	}
	path := filepath.Join(t.TempDir(), "deltas.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}

	first := entityDelta("Novatrix Sound")
	if r, appendErr, err := j.Apply(sys, first); err != nil || appendErr != nil || r.Generation != 1 {
		t.Fatalf("Apply = (%+v, %v, %v), want generation 1 journaled", r, appendErr, err)
	}
	if _, appendErr, err := j.Apply(sys, first); err == nil || appendErr != nil || sys.Generation() != 1 {
		t.Fatalf("stale Apply = (%v, %v) at generation %d, want a rejection that changes nothing", appendErr, err, sys.Generation())
	}
	j.Close()
	if r, appendErr, err := j.Apply(sys, entityDelta("Veltrane Audio")); err != nil || appendErr == nil || r.Generation != 2 {
		t.Fatalf("Apply on a closed journal = (%+v, %v, %v), want generation 2 with an append error", r, appendErr, err)
	}
	var none *Journal
	if r, appendErr, err := none.Apply(sys, entityDelta("Quorra Records")); err != nil || appendErr != nil || r.Generation != 3 {
		t.Fatalf("nil-journal Apply = (%+v, %v, %v), want generation 3", r, appendErr, err)
	}
	if n, _, err := ReplayJournal(path, func(*kb.Delta) error { return nil }); err != nil || n != 1 {
		t.Fatalf("journal holds %d deltas (err %v), want only the one durable apply", n, err)
	}
}

// replayAll replays the journal at path and collects its deltas.
func replayAll(path string) ([]*kb.Delta, bool, error) {
	var got []*kb.Delta
	_, truncated, err := ReplayJournal(path, func(d *kb.Delta) error {
		got = append(got, d)
		return nil
	})
	return got, truncated, err
}

// FuzzJournal damages a valid journal and requires the decoder to hold its
// contract: OpenJournal and ReplayJournal never panic; a journal of clean
// frames followed by a torn tail replays exactly those clean frames; and
// once OpenJournal accepts a file, it leaves it replaying the same deltas
// with no torn tail.
//
// In append mode data becomes a torn tail: a bare partial length prefix
// when shorter than four bytes, otherwise a frame whose length prefix
// promises one byte more than follows. In overwrite mode data replaces
// the file's bytes from offset at on, extending it as needed.
func FuzzJournal(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.journal")
	j, err := OpenJournal(seed)
	if err != nil {
		f.Fatal(err)
	}
	want := journalDeltas()
	for _, d := range want {
		if err := j.Append(d); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	clean, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{0x00, 0x01}, uint16(0), false)
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}, uint16(0), false)
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, 0xde, 0xad, 0xbe, 0xef}, uint16(len(journalMagic)), true)
	f.Add([]byte("AIDADLT\x02"), uint16(0), true)
	f.Add([]byte{0xff}, uint16(len(clean)-1), true)
	f.Fuzz(func(t *testing.T, data []byte, at uint16, overwrite bool) {
		file := append([]byte(nil), clean...)
		var tail []byte
		if overwrite {
			off := int(at) % (len(file) + 1)
			if end := off + len(data); end > len(file) {
				file = append(file, make([]byte, end-len(file))...)
			}
			copy(file[off:], data)
		} else {
			tail = data
			if len(data) >= 4 {
				tail = binary.BigEndian.AppendUint32(nil, uint32(len(data))+1)
				tail = append(tail, data...)
			}
			file = append(file, tail...)
		}
		path := filepath.Join(t.TempDir(), "deltas.journal")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}

		before, truncated, beforeErr := replayAll(path)
		if !overwrite && (beforeErr != nil || truncated != (len(tail) > 0) || !reflect.DeepEqual(before, want)) {
			t.Fatalf("replay over a %d-byte torn tail = (%d deltas, truncated %v, %v), want the %d clean frames",
				len(tail), len(before), truncated, beforeErr, len(want))
		}

		j, err := OpenJournal(path)
		if err != nil {
			return // refused: a foreign header or a corrupt frame
		}
		j.Close()
		if beforeErr != nil {
			t.Fatalf("OpenJournal accepted a file ReplayJournal refused: %v", beforeErr)
		}
		after, truncated, err := replayAll(path)
		if err != nil || truncated || !reflect.DeepEqual(after, before) {
			t.Fatalf("after OpenJournal: replay = (%d deltas, truncated %v, %v), want the %d deltas before it, untruncated",
				len(after), truncated, err, len(before))
		}
	})
}
