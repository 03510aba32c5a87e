package aida

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"aida/internal/wiki"
)

// batchWorld generates a small synthetic world plus a corpus of documents
// for batch-annotation tests.
func batchWorld(t testing.TB, docs int) (*KB, []string) {
	t.Helper()
	w := wiki.Generate(wiki.Config{Seed: 17, Entities: 300})
	corpus := w.GenerateCorpus(wiki.CoNLLSpec(docs, 23))
	texts := make([]string, len(corpus))
	for i, d := range corpus {
		texts[i] = d.Text
	}
	return w.KB, texts
}

// annotateDoc is AnnotateDoc under a background context, failing the test
// on error, reduced to the annotations.
func annotateDoc(t testing.TB, sys *System, text string, opts ...AnnotateOption) []Annotation {
	t.Helper()
	doc, err := sys.AnnotateDoc(context.Background(), text, opts...)
	if err != nil {
		t.Fatalf("AnnotateDoc: %v", err)
	}
	return doc.Annotations
}

// annotateCorpus is AnnotateCorpus under a background context, failing the
// test on error or on a document out of place, reduced to the annotations.
func annotateCorpus(t testing.TB, sys *System, docs []string, opts ...AnnotateOption) [][]Annotation {
	t.Helper()
	got, err := sys.AnnotateCorpus(context.Background(), docs, opts...)
	if err != nil {
		t.Fatalf("AnnotateCorpus: %v", err)
	}
	out := make([][]Annotation, len(got))
	for i, d := range got {
		if d.Index != i {
			t.Fatalf("AnnotateCorpus: document at position %d has index %d", i, d.Index)
		}
		out[i] = d.Annotations
	}
	return out
}

// TestAnnotateBatchMatchesSequential is the headline determinism check:
// AnnotateCorpus at any parallelism must produce documents byte-identical
// to the one-document-at-a-time AnnotateDoc loop — annotations, candidates
// and Index — on both a cold and a warm engine.
func TestAnnotateBatchMatchesSequential(t *testing.T) {
	k, docs := batchWorld(t, 12)
	ctx := context.Background()

	seq := New(k, WithMaxCandidates(10))
	want := make([]*Document, len(docs))
	for i, d := range docs {
		doc, err := seq.AnnotateDoc(ctx, d, IncludeCandidates())
		if err != nil {
			t.Fatal(err)
		}
		doc.Index = i
		want[i] = doc
	}

	for _, parallelism := range []int{0, 1, 2, 8} {
		sys := New(k, WithMaxCandidates(10))
		for _, pass := range []string{"cold", "warm"} {
			got, err := sys.AnnotateCorpus(ctx, docs, WithParallelism(parallelism), IncludeCandidates())
			if err != nil {
				t.Fatalf("parallelism=%d %s: %v", parallelism, pass, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("parallelism=%d: %s batch diverges from the AnnotateDoc loop", parallelism, pass)
			}
		}
	}
}

// koreMethod is the full AIDA configuration with KORE coherence. The default
// method's MW is computed per document and holds no engine state, so tests
// of the engine's memo, its snapshots and its warm-up annotate through this
// method.
func koreMethod() Method {
	return NewMethod("aida-kore", Config{
		UsePrior: true, PriorTest: true, UseCoherence: true, CoherenceTest: true, Measure: KORE,
	})
}

// TestAnnotateBatchWarmsEngine checks that batch annotation under a
// keyphrase coherence measure actually fills the shared engine (the
// cross-document reuse the engine exists for).
func TestAnnotateBatchWarmsEngine(t *testing.T) {
	k, docs := batchWorld(t, 8)
	sys := New(k, WithMaxCandidates(10), WithMethod(koreMethod()))
	annotateCorpus(t, sys, docs, WithParallelism(4))
	misses1 := sys.Scorer().Stats().Misses
	if misses1 == 0 {
		t.Fatal("expected the engine to compute pair values during batch annotation")
	}
	annotateCorpus(t, sys, docs, WithParallelism(4))
	st := sys.Scorer().Stats()
	if st.Misses != misses1 {
		t.Errorf("second pass over the same docs recomputed %d pairs", st.Misses-misses1)
	}
	if st.Hits == 0 {
		t.Error("second pass should hit the warm cache")
	}
}

// TestDefaultMethodEngineDoesNotGrow bounds the default path's memory: a
// server under the default method (MW coherence) sees novel documents
// forever, and the engine has no memory bound, so it must hold nothing for
// them — however many pairs the documents compared.
func TestDefaultMethodEngineDoesNotGrow(t *testing.T) {
	k, docs := batchWorld(t, 300)
	sys := New(k, WithMaxCandidates(10))
	got, err := sys.AnnotateCorpus(context.Background(), docs, IncludeStats())
	if err != nil {
		t.Fatal(err)
	}
	comparisons := 0
	for _, d := range got {
		comparisons += d.Stats.Comparisons
	}
	if comparisons == 0 {
		t.Fatal("the corpus compared no entity pair; the bound is vacuous")
	}
	if st := sys.Scorer().Stats(); st.Pairs != 0 || st.Profiles != 0 {
		t.Errorf("engine holds %d pairs and %d profiles after %d documents (%d comparisons) under the default method, want none",
			st.Pairs, st.Profiles, len(docs), comparisons)
	}
}

// TestAnnotateBoundedMatchesAnnotate pins the concurrency-budgeted
// request to the default pipeline: the bound changes scheduling only.
func TestAnnotateBoundedMatchesAnnotate(t *testing.T) {
	k, docs := batchWorld(t, 4)
	sys := New(k, WithMaxCandidates(10))
	for _, d := range docs {
		want := annotateDoc(t, sys, d)
		for _, bound := range []int{0, 1, 2, runtime.GOMAXPROCS(0)} {
			if got := annotateDoc(t, sys, d, WithParallelism(bound)); !reflect.DeepEqual(want, got) {
				t.Fatalf("bound=%d: bounded AnnotateDoc diverges from the default", bound)
			}
		}
	}
}

// TestAnnotateAllMatchesBatch checks the streaming iterator yields the
// same annotations in order, and honors early termination.
func TestAnnotateAllMatchesBatch(t *testing.T) {
	k, docs := batchWorld(t, 10)
	sys := New(k, WithMaxCandidates(10))
	want := annotateCorpus(t, sys, docs)
	ctx := context.Background()

	for _, parallelism := range []int{0, 1, 2, 8} {
		var got [][]Annotation
		for doc, err := range sys.AnnotateStream(ctx, slices.Values(docs), WithParallelism(parallelism)) {
			if err != nil {
				t.Fatalf("parallelism=%d: %v", parallelism, err)
			}
			if doc.Index != len(got) {
				t.Fatalf("parallelism=%d: yielded index %d at position %d", parallelism, doc.Index, len(got))
			}
			got = append(got, doc.Annotations)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism=%d: streaming output diverges from batch", parallelism)
		}
	}

	// Early break must not deadlock or leak; we only check it stops.
	n := 0
	for range sys.AnnotateStream(ctx, slices.Values(docs), WithParallelism(4)) {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break consumed %d docs", n)
	}
}

// TestSystemRelatednessReusesEngine pins the facade Relatedness to the
// engine (identical values across calls and to a fresh system).
func TestSystemRelatednessReusesEngine(t *testing.T) {
	k := demoKB()
	sys := New(k)
	jimmy, _ := k.EntityByName("Jimmy Page")
	zep, _ := k.EntityByName("Led Zeppelin")
	for _, kind := range []RelatednessKind{MW, KWCS, KPCS, KORE, KORELSHG, KORELSHF} {
		first := sys.Relatedness(kind, jimmy, zep)
		if again := sys.Relatedness(kind, jimmy, zep); again != first {
			t.Fatalf("%v: memoized value drifted: %v vs %v", kind, first, again)
		}
		if fresh := New(k).Relatedness(kind, jimmy, zep); fresh != first {
			t.Fatalf("%v: fresh system disagrees: %v vs %v", kind, first, fresh)
		}
	}
	if sys.Scorer().Stats().Hits == 0 {
		t.Error("repeated Relatedness calls should hit the engine cache")
	}
}
