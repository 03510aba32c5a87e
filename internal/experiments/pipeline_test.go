package experiments

import (
	"strings"
	"testing"

	"aida/internal/disambig"
	"aida/internal/kb"
)

// pipelineChunk is a small news chunk: the town of Snowden appears in
// normal gazette copy, while the whistleblower (out-of-KB) appears in
// surveillance stories. Every document shows twice, so its phrases reach
// minPhraseCount.
func pipelineChunk() []ChunkDoc {
	chunk := []ChunkDoc{
		{Text: "The rural county town of Snowden held its fair. Snowden, a Washington town, expects visitors.",
			Surfaces: []string{"Snowden", "Snowden"}},
		{Text: "The whistleblower Snowden revealed the secret surveillance program.",
			Surfaces: []string{"Snowden"}},
		{Text: "Snowden leaked intelligence files describing the surveillance program.",
			Surfaces: []string{"Snowden"}},
	}
	return append(chunk, chunk...)
}

func testPipeline() *Pipeline {
	return &Pipeline{KB: buildEEKB()}
}

// discoverOne runs NED-EE on one document as the Chapter 5 experiments do:
// the pipeline's problem and placeholder models, then Algorithm 3.
func discoverOne(pl *Pipeline, text string, surfaces []string, chunk []ChunkDoc, enricher *Enricher) *Discovery {
	p := pl.Problem(text, surfaces, enricher)
	return Discover(chunkMethod(), p, pl.Models(chunk, surfaces, enricher))
}

func TestPipelineModels(t *testing.T) {
	pl := testPipeline()
	models := pl.Models(pipelineChunk(), []string{"Snowden"}, nil)
	ee, ok := models["Snowden"]
	if !ok {
		t.Fatal("no placeholder model built")
	}
	if ee.Entity != kb.NoEntity {
		t.Fatal("placeholder must be out-of-KB")
	}
	hasSurveillance := false
	for _, kp := range ee.Keyphrases {
		lower := strings.ToLower(kp.Phrase)
		if strings.Contains(lower, "surveillance") {
			hasSurveillance = true
		}
		if strings.Contains(lower, "rural county") {
			t.Errorf("in-KB phrase %q must be subtracted", kp.Phrase)
		}
	}
	if !hasSurveillance {
		t.Fatalf("fresh evidence missing: %+v", ee.Keyphrases)
	}
}

func TestPipelineSeparatesEEFromKB(t *testing.T) {
	pl := testPipeline()
	chunk := pipelineChunk()
	// Emerging-entity context: the placeholder must win.
	disc := discoverOne(pl, "Snowden spoke about the surveillance program and the leaked files.",
		[]string{"Snowden"}, chunk, nil)
	if !disc.Emerging[0] {
		t.Fatalf("surveillance context should be emerging, got %+v", disc.Output.Results[0])
	}
	// Town context: the KB entity must win.
	disc2 := discoverOne(pl, "The rural county town of Snowden in the pacific northwest held a fair.",
		[]string{"Snowden"}, chunk, nil)
	if disc2.Emerging[0] {
		t.Fatalf("town context should stay in-KB, got %+v", disc2.Output.Results[0])
	}
	if disc2.Output.Results[0].Label != "Snowden, WA" {
		t.Fatalf("wrong town entity: %q", disc2.Output.Results[0].Label)
	}
}

func TestPipelineEnricherRequiresVerbatimEvidence(t *testing.T) {
	pl := testPipeline()
	// Chunk doc where the town is mentioned with its verbatim keyphrase
	// plus a fresh phrase; the fresh phrase should be attributed.
	chunk := []ChunkDoc{{
		Text:     "Snowden, the rural county, launched the riverside parade.",
		Surfaces: []string{"Snowden"},
	}}
	enricher := pl.BuildEnricher(chunk)
	if enricher.Size() == 0 {
		t.Fatal("verbatim evidence should enable harvesting")
	}
	// A chunk doc with no verbatim keyphrase evidence must not enrich.
	chunkNoEvidence := []ChunkDoc{{
		Text:     "Snowden organized the riverside parade downtown.",
		Surfaces: []string{"Snowden"},
	}}
	if e := pl.BuildEnricher(chunkNoEvidence); e.Size() != 0 {
		t.Fatal("zero-evidence mention must not enrich")
	}
}

func TestPipelineEnrichedSubtraction(t *testing.T) {
	pl := testPipeline()
	// The town co-occurs with a fresh phrase AND verbatim evidence in the
	// chunk; with enrichment, that fresh phrase is claimed for the town
	// and subtracted from the placeholder model.
	chunk := []ChunkDoc{
		{Text: "Snowden, the rural county, hosted the riverside parade with pride.",
			Surfaces: []string{"Snowden"}},
		{Text: "Snowden, the rural county, hosted the riverside parade again.",
			Surfaces: []string{"Snowden"}},
	}
	enricher := pl.BuildEnricher(chunk)
	withEnrich := pl.Models(chunk, []string{"Snowden"}, enricher)
	without := pl.Models(chunk, []string{"Snowden"}, nil)
	contains := func(models map[string]disambig.Candidate, phrase string) bool {
		for _, kp := range models["Snowden"].Keyphrases {
			if strings.Contains(strings.ToLower(kp.Phrase), phrase) {
				return true
			}
		}
		return false
	}
	if !contains(without, "riverside") {
		t.Skip("fresh phrase was not harvested at all; nothing to compare")
	}
	if contains(withEnrich, "riverside") {
		t.Fatal("enrichment should subtract the claimed phrase from the placeholder")
	}
}
