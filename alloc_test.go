//go:build !race

package aida

import (
	"context"
	"runtime"
	"testing"

	"aida/internal/wiki"
)

// The allocation budget of one warm AnnotateDoc of a CoNLL-shaped document
// over an 800-entity world (the document and system of
// BenchmarkAnnotateDocAllocs). The ceilings are ≈ 25 % above what the commit
// that set them measured — 89 870 B in 307 objects, from 104 165 B in 454 at
// its parent — so pooled scratch
// dropped by a collection mid-measurement passes and a lost pool, a per-word
// map or a per-document triangle does not. Lower them when the budget shrinks.
const (
	maxAnnotateDocBytes   = 110 << 10
	maxAnnotateDocObjects = 384
)

// TestAnnotateDocAllocBudget fails when the annotate hot path allocates more
// per document than the stated budget. Per-document garbage is what sets the
// collector's pace against the KB's pointer-rich heap, so it is asserted, not
// just printed by a benchmark nobody reads. (Not built under -race, where
// sync.Pool deliberately drops what it is given.)
func TestAnnotateDocAllocBudget(t *testing.T) {
	w := wiki.Generate(wiki.Config{Seed: 43, Entities: 800})
	docs := w.GenerateCorpus(wiki.CoNLLSpec(4, 123))
	sys := New(w.KB, WithMaxCandidates(10))
	ctx := context.Background()
	annotate := func() {
		if _, err := sys.AnnotateDoc(ctx, docs[0].Text); err != nil {
			t.Fatal(err)
		}
	}
	// One goroutine, as testing.AllocsPerRun measures: nothing else may
	// allocate between the two readings — so the entities the KB's
	// background pass has not compiled yet are compiled here, leaving it
	// nothing to allocate.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for id := range w.KB.NumEntities() {
		e := w.KB.Entity(EntityID(id))
		w.KB.Vocabulary().Phrases(e.ID, e.Keyphrases)
	}
	for i := 0; i < 3; i++ {
		annotate() // fills the pools
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		annotate()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("one warm AnnotateDoc: %d B in %d objects", bytes, objects)
	if bytes > maxAnnotateDocBytes || objects > maxAnnotateDocObjects {
		t.Fatalf("one warm AnnotateDoc allocates %d B in %d objects, over the budget of %d B in %d objects",
			bytes, objects, maxAnnotateDocBytes, maxAnnotateDocObjects)
	}
}
