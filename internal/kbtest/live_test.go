package kbtest

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aida"
	"aida/internal/kb"
)

// TestGoldenCorpusOverlay is the live-update conformance gate: an Overlay
// over the golden KB plus GoldenDelta must be indistinguishable — same
// fingerprint, byte-identical pipeline output on every golden document —
// from a full Rebuild containing the same facts, at 1 and 4 shards.
func TestGoldenCorpusOverlay(t *testing.T) {
	docs := Docs(t)
	delta := GoldenDelta()
	full, err := kb.Rebuild(GoldenKB(), delta)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			var base, rebuilt kb.Store = GoldenKB(), full
			if n > 1 {
				base = kb.Shard(GoldenKB(), n)
				rebuilt = kb.Shard(full, n)
			}
			ov, err := kb.NewOverlay(base, delta)
			if err != nil {
				t.Fatalf("NewOverlay: %v", err)
			}
			if got, want := ov.Fingerprint(), rebuilt.Fingerprint(); got != want {
				t.Fatalf("overlay fingerprint %016x != rebuild fingerprint %016x", got, want)
			}
			sysOv, sysRe := NewSystem(ov), NewSystem(rebuilt)
			for _, d := range docs {
				got := AnnotateJSON(t, sysOv, d.Text)
				want := AnnotateJSON(t, sysRe, d.Text)
				if !bytes.Equal(got, want) {
					t.Errorf("doc %s: overlay output differs from rebuild output", d.Name)
				}
			}
		})
	}
}

// TestInLinksStrictlyAscending asserts the invariant both MW kernels rest on
// — disambig's inverted in-link index and kb.IntersectSortedSize: every
// entity's in-link list is ascending and duplicate-free. It must hold in a
// generated KB, through an Overlay and after a Rebuild, here for a delta
// that repeats an edge the base already has, names one new edge twice and
// lists its additions in descending source order.
func TestInLinksStrictlyAscending(t *testing.T) {
	base := GoldenKB()
	delta := GoldenDelta()
	var dst kb.EntityID
	for len(base.Entity(dst).InLinks) == 0 {
		dst++
	}
	added := kb.EntityID(base.NumEntities())
	delta.Links = append(delta.Links,
		kb.LinkAddition{Src: added + 1, Dst: dst},
		kb.LinkAddition{Src: added, Dst: dst},
		kb.LinkAddition{Src: added, Dst: dst},
		kb.LinkAddition{Src: base.Entity(dst).InLinks[0], Dst: dst},
	)
	ov, err := kb.NewOverlay(base, delta)
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	rebuilt, err := kb.Rebuild(base, delta)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got, want := len(ov.Entity(dst).InLinks), len(base.Entity(dst).InLinks)+2; got != want {
		t.Fatalf("entity %d has %d in-links through the overlay, want %d (two new sources, one repeat of each kind dropped)", dst, got, want)
	}
	for _, s := range []NamedStore{{"generated", base}, {"overlay", ov}, {"rebuild", rebuilt}} {
		for e := range kb.EntityID(s.Store.NumEntities()) {
			links := s.Store.Entity(e).InLinks
			for i := 1; i < len(links); i++ {
				if links[i-1] >= links[i] {
					t.Fatalf("%s: entity %d: in-links not strictly ascending at %d: %v", s.Name, e, i, links)
				}
			}
		}
	}
}

// TestApplyDeltaConcurrent drives annotation traffic through a System
// while ApplyDelta races it and asserts the no-torn-reads contract: every
// document's output matches exactly the pre-apply generation or the
// post-apply generation, never a mixture — and after the apply settles,
// everything is on the new generation, with the added entity linkable by
// name in the very next request. Run with -race, this also proves the
// generation swap is data-race free.
func TestApplyDeltaConcurrent(t *testing.T) { applyDeltaConcurrent(t, nil) }

// TestApplyDeltaConcurrentInDomain is the same race with every request
// routed into a registered domain: the domain's layer is rebuilt over the
// new generation and swapped in with it, so a WithDomain reader, too, sees
// exactly one of the two generations.
func TestApplyDeltaConcurrentInDomain(t *testing.T) {
	dict := goldenDomain()
	applyDeltaConcurrent(t, &dict)
}

// goldenDomain is a one-row dictionary over the golden KB: it makes the
// runner-up sense of the last ambiguous dictionary row the head sense (the
// first such row is the one GoldenDelta re-weights).
func goldenDomain() kb.DomainDictionary {
	k := GoldenKB()
	names := k.Names()
	for i := len(names) - 1; i >= 0; i-- {
		if cands := k.Candidates(names[i]); len(cands) >= 2 {
			return kb.DomainDictionary{Name: "runner-up", Rows: []kb.DomainRow{{
				Surface: names[i],
				Entity:  k.Entity(cands[1].Entity).Name,
				Count:   cands[0].Count + 1,
			}}}
		}
	}
	panic("kbtest: the golden KB has no ambiguous dictionary row")
}

// newDomainSystem is NewSystem with dict, when given, registered.
func newDomainSystem(t *testing.T, s kb.Store, dict *kb.DomainDictionary) *aida.System {
	t.Helper()
	sys := NewSystem(s)
	if dict != nil {
		if err := sys.RegisterDomain(*dict); err != nil {
			t.Fatalf("RegisterDomain: %v", err)
		}
	}
	return sys
}

func applyDeltaConcurrent(t *testing.T, dict *kb.DomainDictionary) {
	docs := Docs(t)
	delta := GoldenDelta()
	ctx := context.Background()
	opts := ConformanceOptions()
	if dict != nil {
		opts = append(opts, aida.WithDomain(dict.Name))
	}
	annotate := func(sys *aida.System, text string) []byte {
		t.Helper()
		doc, err := sys.AnnotateDoc(ctx, text, opts...)
		if err != nil {
			t.Fatalf("AnnotateDoc: %v", err)
		}
		data, err := MarshalDoc(doc)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}

	// The two legal outputs per document: generation 0 (golden KB) and
	// generation 1 (delta applied), computed on separate pristine systems.
	expect0 := make(map[string][]byte, len(docs))
	expect1 := make(map[string][]byte, len(docs))
	sys0 := newDomainSystem(t, GoldenKB(), dict)
	full, err := kb.Rebuild(GoldenKB(), delta)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	sys1 := newDomainSystem(t, full, dict)
	for _, d := range docs {
		expect0[d.Name] = annotate(sys0, d.Text)
		expect1[d.Name] = annotate(sys1, d.Text)
	}
	changed := 0
	for _, d := range docs {
		if !bytes.Equal(expect0[d.Name], expect1[d.Name]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("GoldenDelta changes no golden document output; the torn-read check would be vacuous")
	}

	sys := newDomainSystem(t, GoldenKB(), dict)
	const readers = 8
	const rounds = 6
	errc := make(chan error, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				d := docs[(r+i)%len(docs)]
				doc, err := sys.AnnotateDoc(ctx, d.Text, opts...)
				if err != nil {
					errc <- fmt.Errorf("reader %d doc %s: %v", r, d.Name, err)
					return
				}
				got, err := MarshalDoc(doc)
				if err != nil {
					errc <- fmt.Errorf("reader %d doc %s: marshal: %v", r, d.Name, err)
					return
				}
				if !bytes.Equal(got, expect0[d.Name]) && !bytes.Equal(got, expect1[d.Name]) {
					errc <- fmt.Errorf("reader %d doc %s: torn read — output matches neither generation", r, d.Name)
					return
				}
			}
			errc <- nil
		}(r)
	}
	close(start)
	receipt, err := sys.ApplyDelta(delta)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if receipt.Generation != 1 || receipt.Entities != 2 {
		t.Fatalf("unexpected receipt: %+v", receipt)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}

	// Applying the same delta again must be rejected (it was built against
	// generation 0) and change nothing.
	if _, err := sys.ApplyDelta(delta); err == nil {
		t.Error("re-applying a generation-0 delta against generation 1 should fail validation")
	}
	if got := sys.Generation(); got != 1 {
		t.Fatalf("generation after rejected re-apply = %d, want 1", got)
	}

	// After the apply settles, every document is on generation 1 …
	for _, d := range docs {
		if got := annotate(sys, d.Text); !bytes.Equal(got, expect1[d.Name]) {
			t.Errorf("doc %s: post-apply output does not match the new generation", d.Name)
		}
	}
	// … and the added entity is linkable by name immediately.
	wantID, ok := sys.Store().EntityByName(GoldenDeltaEntityA)
	if !ok {
		t.Fatalf("entity %q not resolvable after apply", GoldenDeltaEntityA)
	}
	doc, err := sys.AnnotateDoc(ctx, "Quarterly reports about "+GoldenDeltaEntityA+" circulated widely today.", opts...)
	if err != nil {
		t.Fatalf("AnnotateDoc: %v", err)
	}
	linked := false
	for _, a := range doc.Annotations {
		if strings.Contains(a.Mention.Text, GoldenDeltaEntityA) && a.Entity == wantID {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("added entity %q (id %d) not linked in the next request; annotations: %+v",
			GoldenDeltaEntityA, wantID, doc.Annotations)
	}
}

// TestApplyDeltaRebasesDomains pins that a registered domain belongs to the
// serving generation: after an apply, a WithDomain request links the added
// entities exactly as a base request does (it served generation 0 forever
// when layers were bound at registration), and the domain's own
// re-weighting still holds over the new store.
func TestApplyDeltaRebasesDomains(t *testing.T) {
	dict := goldenDomain()
	sys := newDomainSystem(t, GoldenKB(), &dict)
	if _, err := sys.ApplyDelta(GoldenDelta()); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got := sys.DomainNames(); len(got) != 1 || got[0] != dict.Name {
		t.Fatalf("DomainNames after apply = %v, want [%s]", got, dict.Name)
	}
	idA, okA := sys.Store().EntityByName(GoldenDeltaEntityA)
	idB, okB := sys.Store().EntityByName(GoldenDeltaEntityB)
	if !okA || !okB {
		t.Fatal("delta entities not resolvable after apply")
	}
	ctx := context.Background()
	text := GoldenDeltaEntityA + " opened an office near " + GoldenDeltaEntityB + "."
	for _, opts := range [][]aida.AnnotateOption{nil, {aida.WithDomain(dict.Name)}} {
		doc, err := sys.AnnotateDoc(ctx, text, opts...)
		if err != nil {
			t.Fatalf("AnnotateDoc: %v", err)
		}
		if len(doc.Annotations) != 2 || doc.Annotations[0].Entity != idA || doc.Annotations[1].Entity != idB {
			t.Errorf("domain request %v: annotations %+v, want entities %d and %d", opts != nil, doc.Annotations, idA, idB)
		}
	}
	// The row the domain re-weights still leads with the domain's sense.
	row := dict.Rows[0]
	want, _ := sys.Store().EntityByName(row.Entity)
	doc, err := sys.AnnotateDoc(ctx, "Reports mention "+row.Surface+" today.",
		aida.UseMethodNamed("prior"), aida.WithDomain(dict.Name))
	if err != nil {
		t.Fatalf("AnnotateDoc: %v", err)
	}
	if last := doc.Annotations[len(doc.Annotations)-1]; last.Mention.Text != row.Surface || last.Entity != want {
		t.Errorf("domain sense of %q after apply: %+v, want entity %d (%s)", row.Surface, last, want, row.Entity)
	}
}

// TestOverlayCallersSeeOneGeneration pins the Live() snapshot contract:
// the snapshot taken before an apply stays internally consistent (old
// store, old counters) while the System serves the new generation.
func TestOverlayCallersSeeOneGeneration(t *testing.T) {
	sys := NewSystem(GoldenKB())
	before := sys.Live()
	if before.Stats.Generation != 0 {
		t.Fatalf("fresh system at generation %d", before.Stats.Generation)
	}
	if _, err := sys.ApplyDelta(GoldenDelta()); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	after := sys.Live()
	if after.Stats.Generation != 1 {
		t.Fatalf("generation = %d, want 1", after.Stats.Generation)
	}
	if before.Store.NumEntities() == after.Store.NumEntities() {
		t.Fatal("apply did not grow the serving store")
	}
	if before.Store.NumEntities() != GoldenKB().NumEntities() {
		t.Fatal("pre-apply snapshot was mutated by the apply")
	}
	var _ aida.Store = after.Store // the snapshot exposes the public Store surface
}
