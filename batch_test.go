package aida

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"aida/internal/relatedness"
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
// and Index — on a fresh System and again on the same System.
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
		for _, pass := range []string{"first", "repeated"} {
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

// TestSystemRelatednessReusesEngine pins the facade Relatedness, which
// caches nothing, to the engine's values bit for bit: every kind, both
// argument orders, repeated calls.
func TestSystemRelatednessReusesEngine(t *testing.T) {
	k := demoKB()
	sys := New(k)
	engine := relatedness.NewScorer(k)
	jimmy, _ := k.EntityByName("Jimmy Page")
	zep, _ := k.EntityByName("Led Zeppelin")
	for _, kind := range []RelatednessKind{MW, KWCS, KPCS, KORE, KORELSHG, KORELSHF} {
		for _, pr := range [][2]EntityID{{jimmy, zep}, {zep, jimmy}} {
			want := math.Float64bits(engine.Relatedness(kind, pr[0], pr[1]))
			for range 2 {
				if got := math.Float64bits(relate(t, sys, kind, pr[0], pr[1])); got != want {
					t.Fatalf("%v%v: %#x, engine %#x", kind, pr, got, want)
				}
			}
		}
	}
}
