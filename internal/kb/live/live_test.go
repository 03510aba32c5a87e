package live

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aida"
	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
	"aida/internal/textstat"
)

// testKB builds a tiny music-domain repository: three entities with
// cross-links and a shared "hard rock" keyphrase, so graduation tests can
// exercise both base-vocabulary reuse and fresh-vocabulary IDF minting.
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

// discovery fabricates a single-mention emerging discovery whose
// placeholder model carries the given keyphrases.
func discovery(surface string, phrases ...string) *emerge.Discovery {
	model := disambig.Candidate{Entity: kb.NoEntity, Label: surface + "_EE"}
	for _, p := range phrases {
		model.Keyphrases = append(model.Keyphrases, kb.Keyphrase{
			Phrase: p, Words: kb.PhraseWords(p), MI: 1, IDF: 1,
		})
	}
	return &emerge.Discovery{
		Output: &disambig.Output{Results: []disambig.Result{
			{Surface: surface, CandidateIndex: -1, Entity: kb.NoEntity},
		}},
		Emerging: []bool{true},
		Models:   map[string]disambig.Candidate{surface: model},
	}
}

// enough is a placeholder model of exactly minKeyphrases keyphrases.
var enough = []string{"synth lab", "drum clinic", "tape loop"}

// observeReady observes d as often as graduation requires.
func observeReady(g *Graduator, d *emerge.Discovery) {
	for range minOccurrences {
		g.Observe(d)
	}
}

func TestGraduatorThresholds(t *testing.T) {
	base := testKB()
	g := NewGraduator()
	obs := discovery("Novatrix Sound", "hard rock", "synthwave pioneers", "analog tape")

	for i := 0; i < minOccurrences-1; i++ {
		g.Observe(obs)
		if d := g.Graduate(base); d != nil {
			t.Fatalf("graduated after %d observations, want threshold 3", i+1)
		}
	}
	if got := g.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
	g.Observe(obs)
	d := g.Graduate(base)
	if d == nil {
		t.Fatal("no delta after reaching minOccurrences")
	}
	if g.Pending() != 0 {
		t.Fatalf("Pending() = %d after graduation, want 0 (drained)", g.Pending())
	}
	if len(d.Entities) != 1 || d.Entities[0].Name != "Novatrix Sound" {
		t.Fatalf("unexpected entities: %+v", d.Entities)
	}
	if d.Entities[0].Domain != "emerging" || len(d.Entities[0].Types) != 1 || d.Entities[0].Types[0] != "emerging" {
		t.Fatalf("graduated entity not labeled emerging: %+v", d.Entities[0])
	}
	wantRow := kb.RowAddition{Surface: "Novatrix Sound", Entity: kb.EntityID(base.NumEntities()), Count: 3}
	if len(d.Rows) != 1 || d.Rows[0] != wantRow {
		t.Fatalf("rows = %+v, want [%+v]", d.Rows, wantRow)
	}

	// Vocabulary the base already weights keeps its IDF; fresh vocabulary
	// gets the minimum-evidence weight and a matching delta IDF entry.
	newIDF := textstat.IDF(float64(base.NumEntities()+1), 1)
	for _, kp := range d.Entities[0].Keyphrases {
		switch kp.Phrase {
		case "hard rock":
			if want := base.PhraseIDF("hard rock"); kp.IDF != want {
				t.Errorf("base phrase IDF = %g, want %g", kp.IDF, want)
			}
		case "synthwave pioneers":
			if kp.IDF != newIDF {
				t.Errorf("fresh phrase IDF = %g, want %g", kp.IDF, newIDF)
			}
		}
	}
	if got := d.PhraseIDF["synthwave pioneers"]; got != newIDF {
		t.Errorf("delta PhraseIDF[synthwave pioneers] = %g, want %g", got, newIDF)
	}
	if _, extended := d.PhraseIDF["hard rock"]; extended {
		t.Error("delta must not extend IDF for vocabulary the base already weights")
	}
	for _, w := range []string{"synthwave", "pioneers"} {
		if got := d.WordIDF[w]; got != newIDF {
			t.Errorf("delta WordIDF[%s] = %g, want %g", w, got, newIDF)
		}
	}

	// The delta is installable: the overlay resolves the new name.
	ov, err := kb.NewOverlay(base, d)
	if err != nil {
		t.Fatalf("NewOverlay over graduated delta: %v", err)
	}
	if _, ok := ov.EntityByName("Novatrix Sound"); !ok {
		t.Error("graduated entity not resolvable in overlay")
	}
}

func TestGraduatorGates(t *testing.T) {
	base := testKB()

	t.Run("non-emerging skipped", func(t *testing.T) {
		g := NewGraduator()
		d := discovery("Novatrix", enough...)
		d.Emerging[0] = false
		g.Observe(d)
		if g.Pending() != 0 {
			t.Fatal("non-emerging mention accumulated evidence")
		}
	})
	t.Run("keyphrase floor", func(t *testing.T) {
		g := NewGraduator()
		g.Observe(discovery("Novatrix", enough[:minKeyphrases-1]...))
		if g.Pending() != 0 {
			t.Fatal("model below minKeyphrases accumulated evidence")
		}
		g.Observe(discovery("Novatrix", enough...))
		if g.Pending() != 1 {
			t.Fatal("model at minKeyphrases was dropped")
		}
	})
	t.Run("in-KB model skipped", func(t *testing.T) {
		g := NewGraduator()
		d := discovery("Novatrix", enough...)
		m := d.Models["Novatrix"]
		m.Entity = 1 // not a placeholder
		d.Models["Novatrix"] = m
		g.Observe(d)
		if g.Pending() != 0 {
			t.Fatal("in-KB model accumulated evidence")
		}
	})
	t.Run("missing model skipped", func(t *testing.T) {
		g := NewGraduator()
		d := discovery("Novatrix", enough...)
		delete(d.Models, "Novatrix")
		g.Observe(d)
		if g.Pending() != 0 {
			t.Fatal("mention without a model accumulated evidence")
		}
	})
	t.Run("max pending bound", func(t *testing.T) {
		g := NewGraduator()
		for i := range maxPending {
			g.Observe(discovery(fmt.Sprintf("Works %04d", i), enough...))
		}
		g.Observe(discovery("Overflow Works", enough...))
		if got := g.Pending(); got != maxPending {
			t.Fatalf("Pending() = %d, want %d (maxPending bound)", got, maxPending)
		}
		// A tracked surface still accumulates at the bound.
		first := discovery("Works 0000", enough...)
		for range minOccurrences - 1 {
			g.Observe(first)
		}
		if d := g.Graduate(testKB()); d == nil || len(d.Entities) != 1 || d.Entities[0].Name != "Works 0000" {
			t.Fatalf("tracked surface did not graduate at the bound: %+v", d)
		}
	})
	t.Run("name collision suffixed", func(t *testing.T) {
		g := NewGraduator()
		observeReady(g, discovery("Jimmy Page", enough...))
		d := g.Graduate(base)
		if d == nil || len(d.Entities) != 1 {
			t.Fatalf("unexpected delta: %+v", d)
		}
		if got, want := d.Entities[0].Name, "Jimmy Page (emerging)"; got != want {
			t.Fatalf("colliding name graduated as %q, want %q", got, want)
		}
		if err := d.Validate(base); err != nil {
			t.Fatalf("suffixed delta does not validate: %v", err)
		}
	})
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

func TestLoopNote(t *testing.T) {
	var l Loop
	span := func(s string) aida.MentionSpan { return aida.MentionSpan{Text: s} }

	// Fully linked documents carry no emerging evidence.
	l.Note("Jimmy Page founded Led Zeppelin.", []aida.Annotation{
		{Mention: span("Jimmy Page"), Entity: 0},
		{Mention: span("Led Zeppelin"), Entity: 1},
	})
	if l.Buffered() != 0 {
		t.Fatalf("linked document buffered; Buffered() = %d", l.Buffered())
	}

	ee := func(s string) []aida.Annotation {
		return []aida.Annotation{{Mention: span(s), Entity: aida.NoEntity}}
	}
	for i := range maxDocs + 1 {
		l.Note(fmt.Sprint(i), ee("Alpha Works"))
	}
	if got := l.Buffered(); got != maxDocs {
		t.Fatalf("Buffered() = %d, want %d (maxDocs ring)", got, maxDocs)
	}
	if l.docs[0].text != "1" {
		t.Fatalf("oldest buffered document is %q, want %q (the first was dropped)", l.docs[0].text, "1")
	}
}

// TestLoopRunOnceGraduates drives the full apply path: pre-accumulated
// evidence graduates, the delta installs a new generation on the serving
// System, the journal records it, and replaying the journal into a fresh
// System reproduces the exact same store.
func TestLoopRunOnceGraduates(t *testing.T) {
	sys := aida.New(testKB())
	g := NewGraduator()
	observeReady(g, discovery("Novatrix Sound", "hard rock", "synthwave pioneers", "analog tape"))

	path := filepath.Join(t.TempDir(), "deltas.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()

	l := &Loop{System: sys, Graduator: g, Journal: j}
	receipt, applied, err := l.RunOnce(context.Background())
	if err != nil || !applied {
		t.Fatalf("RunOnce = (%+v, %v, %v), want an apply", receipt, applied, err)
	}
	if receipt.Generation != 1 || receipt.Entities != 1 {
		t.Fatalf("unexpected receipt: %+v", receipt)
	}
	if got := sys.Generation(); got != 1 {
		t.Fatalf("Generation() = %d, want 1", got)
	}
	if _, ok := sys.Store().EntityByName("Novatrix Sound"); !ok {
		t.Fatal("graduated entity not resolvable on the serving store")
	}

	// Nothing pending → the next pass is a no-op.
	if _, applied, err := l.RunOnce(context.Background()); err != nil || applied {
		t.Fatalf("second RunOnce = (%v, %v), want no-op", applied, err)
	}

	// Replay rebuilds the exact serving store on a fresh System.
	sys2 := aida.New(testKB())
	n, truncated, err := ReplayJournal(path, func(d *kb.Delta) error {
		_, err := sys2.ApplyDelta(d)
		return err
	})
	if err != nil || truncated || n != 1 {
		t.Fatalf("ReplayJournal = (%d, %v, %v), want (1, false, nil)", n, truncated, err)
	}
	if sys2.Store().Fingerprint() != sys.Store().Fingerprint() {
		t.Fatal("journal replay did not reproduce the serving store fingerprint")
	}
}

// TestLoopRunOnceDrainsBuffer runs the real discovery pipeline over a
// buffered document with an out-of-KB mention: one observation is below
// the default graduation threshold, so nothing applies, but the buffer is
// consumed and the System stays on generation 0.
func TestLoopRunOnceDrainsBuffer(t *testing.T) {
	sys := aida.New(testKB())
	l := &Loop{System: sys}
	l.Note("Novatrix Sound toured with Led Zeppelin while Jimmy Page produced the record.",
		[]aida.Annotation{
			{Mention: aida.MentionSpan{Text: "Novatrix Sound"}, Entity: aida.NoEntity},
			{Mention: aida.MentionSpan{Text: "Led Zeppelin"}, Entity: 1},
			{Mention: aida.MentionSpan{Text: "Jimmy Page"}, Entity: 0},
		})
	if l.Buffered() != 1 {
		t.Fatalf("Buffered() = %d, want 1", l.Buffered())
	}
	if _, applied, err := l.RunOnce(context.Background()); err != nil || applied {
		t.Fatalf("RunOnce = (%v, %v), want drained no-op", applied, err)
	}
	if l.Buffered() != 0 {
		t.Fatalf("Buffered() = %d after RunOnce, want 0", l.Buffered())
	}
	if got := sys.Generation(); got != 0 {
		t.Fatalf("Generation() = %d, want 0 (single observation below threshold)", got)
	}
}

// TestJournalApply pins the applier's contract: a rejected delta changes
// and records nothing, a failed append leaves the apply standing and says
// so, and a nil journal applies without recording.
func TestJournalApply(t *testing.T) {
	sys := aida.New(testKB())
	graduate := func(surface string) *kb.Delta {
		g := NewGraduator()
		observeReady(g, discovery(surface, "hard rock", "synth lab", "tape loop"))
		return g.Graduate(sys.Store())
	}
	path := filepath.Join(t.TempDir(), "deltas.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}

	first := graduate("Novatrix Sound")
	if r, appendErr, err := j.Apply(sys, first); err != nil || appendErr != nil || r.Generation != 1 {
		t.Fatalf("Apply = (%+v, %v, %v), want generation 1 journaled", r, appendErr, err)
	}
	if _, appendErr, err := j.Apply(sys, first); err == nil || appendErr != nil || sys.Generation() != 1 {
		t.Fatalf("stale Apply = (%v, %v) at generation %d, want a rejection that changes nothing", appendErr, err, sys.Generation())
	}
	j.Close()
	if r, appendErr, err := j.Apply(sys, graduate("Veltrane Audio")); err != nil || appendErr == nil || r.Generation != 2 {
		t.Fatalf("Apply on a closed journal = (%+v, %v, %v), want generation 2 with an append error", r, appendErr, err)
	}
	var none *Journal
	if r, appendErr, err := none.Apply(sys, graduate("Quorra Records")); err != nil || appendErr != nil || r.Generation != 3 {
		t.Fatalf("nil-journal Apply = (%+v, %v, %v), want generation 3", r, appendErr, err)
	}
	if n, _, err := ReplayJournal(path, func(*kb.Delta) error { return nil }); err != nil || n != 1 {
		t.Fatalf("journal holds %d deltas (err %v), want only the one durable apply", n, err)
	}
}
