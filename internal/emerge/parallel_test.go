package emerge

import (
	"reflect"
	"testing"

	"aida/internal/relatedness"
)

// parallelPipeline is testPipeline with worker pools and a shared engine.
func parallelPipeline(workers int) *Pipeline {
	pl := testPipeline()
	pl.Parallelism = workers
	pl.Scorer = relatedness.NewScorer(pl.KB)
	return pl
}

// TestPipelineParallelMatchesSequential pins the parallel chunk-harvesting
// and enrichment paths to the sequential ones: identical enricher state,
// placeholder models and end-to-end discoveries at any worker count. The
// chunk includes a document whose surface has no dictionary candidates, so
// enrichment also disambiguates a mention with an empty candidate list.
func TestPipelineParallelMatchesSequential(t *testing.T) {
	chunk := append(pipelineChunk(), ChunkDoc{
		Text:     "Zorblatt Qux spoke about the surveillance program.",
		Surfaces: []string{"Zorblatt Qux"}, // out-of-dictionary surface
	})
	text := "Snowden spoke about the surveillance program and the leaked files."
	surfaces := []string{"Snowden"}

	seqPl := testPipeline()
	seqEnricher := seqPl.BuildEnricher(chunk)
	seqModels := seqPl.Models(chunk, surfaces, seqEnricher)
	seqDisc := seqPl.Run(text, surfaces, chunk, seqEnricher)

	for _, workers := range []int{2, 8} {
		pl := parallelPipeline(workers)
		enricher := pl.BuildEnricher(chunk)
		if !reflect.DeepEqual(seqEnricher, enricher) {
			t.Fatalf("workers=%d: enricher diverges from sequential build", workers)
		}
		models := pl.Models(chunk, surfaces, enricher)
		if !reflect.DeepEqual(seqModels, models) {
			t.Fatalf("workers=%d: placeholder models diverge from sequential build", workers)
		}
		disc := pl.Run(text, surfaces, chunk, enricher)
		if !reflect.DeepEqual(seqDisc, disc) {
			t.Fatalf("workers=%d: discovery diverges from sequential run", workers)
		}
	}
}

// TestHarvestDocsParallelMatchesSequential checks the raw harvest counts.
func TestHarvestDocsParallelMatchesSequential(t *testing.T) {
	docs := make([]string, 0, 9)
	for i := 0; i < 3; i++ {
		for _, d := range pipelineChunk() {
			docs = append(docs, d.Text)
		}
	}
	names := []string{"Snowden"}
	h := Harvester{Window: -1}
	want := h.HarvestDocs(docs, names)
	for _, workers := range []int{2, 4, 16} {
		got := h.HarvestDocsParallel(docs, names, workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: parallel harvest diverges from sequential", workers)
		}
	}
}
