package experiments

import (
	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
)

// ChunkDoc is one document of the harvesting chunk (the recent news the
// placeholder models are mined from).
type ChunkDoc struct {
	Text     string
	Surfaces []string // recognized mention surfaces with dictionary candidates
}

// Pipeline wires the NED-EE components (Sec. 5.3) into the news-stream
// workflow: keyphrase harvesting over a recent chunk, in-KB keyphrase
// enrichment from high-confidence disambiguations, and placeholder model
// construction by model difference. Discover (Algorithm 3) runs on the
// problems and models it builds.
type Pipeline struct {
	// KB is the knowledge base store the pipeline harvests against: any
	// kb.Store, with identical results for the same content.
	KB kb.Store
	// MaxCandidates caps dictionary candidates per mention (0 = no cap).
	MaxCandidates int
}

// chunkMethod disambiguates the chunk documents the enricher harvests:
// prior-backed keyphrase similarity with the prior robustness test
// (r-prior sim-k).
func chunkMethod() disambig.Method {
	return disambig.NewAIDAVariant("ee-sim", disambig.Config{UsePrior: true, PriorTest: true})
}

// Enrichment gates (Sec. 5.5.1). A chunk mention is harvested only when
// its normalized confidence is at least minConfidence, and one of its
// sentences contributes evidence only when it covers one of the chosen
// entity's known keyphrases at least minCover well: zero-evidence
// "confident" assignments must never enrich (Sec. 5.7.3).
const (
	minConfidence = 0.95
	minCover      = 0.9
)

// BuildEnricher mines keyphrases for existing entities from the chunk
// (Sec. 5.5.1): each document is disambiguated, and sentences around
// high-confidence mentions that carry verbatim keyphrase evidence for the
// chosen entity are harvested and attributed to it, in document order.
func (pl *Pipeline) BuildEnricher(chunk []ChunkDoc) *Enricher {
	m := chunkMethod()
	enricher := NewEnricher()
	for _, d := range chunk {
		enricher.Apply(pl.harvestChunkDoc(m, d))
	}
	return enricher
}

// harvestChunkDoc disambiguates one chunk document and collects its
// high-confidence keyphrase contribution (nil when there is none).
func (pl *Pipeline) harvestChunkDoc(m disambig.Method, d ChunkDoc) *HarvestContribution {
	if len(d.Surfaces) == 0 {
		return nil
	}
	p := disambig.NewProblem(pl.KB, d.Text, d.Surfaces, pl.MaxCandidates)
	out := m.Disambiguate(p)
	conf := emerge.NormConfidence(out)
	chosen := map[string]*disambig.Candidate{}
	for j, r := range out.Results {
		if r.CandidateIndex >= 0 {
			chosen[r.Surface] = &p.Mentions[j].Candidates[r.CandidateIndex]
		}
	}
	h := Harvester{Lexicon: pl.KB}
	h.SentenceFilter = func(name string, sentenceWords []string) bool {
		c := chosen[name]
		if c == nil {
			return false
		}
		return disambig.BestPhraseCover(p.ForText(sentenceWords), c) >= minCover
	}
	return CollectHighConfidence(&h, d.Text, out, conf, minConfidence)
}

// Models harvests the chunk for the given surfaces and builds one
// placeholder candidate per surface that has any global evidence. The
// enricher (may be nil) supplies harvested keyphrases for existing
// entities, which are subtracted from the placeholder models.
func (pl *Pipeline) Models(chunk []ChunkDoc, surfaces []string, enricher *Enricher) map[string]disambig.Candidate {
	texts := make([]string, len(chunk))
	for i, d := range chunk {
		texts[i] = d.Text
	}
	h := Harvester{Lexicon: pl.KB}
	hv := h.HarvestDocs(texts, surfaces)
	models := make(map[string]disambig.Candidate)
	for _, surf := range surfaces {
		if _, done := models[surf]; done {
			continue
		}
		if len(hv.Counts[surf]) == 0 {
			continue
		}
		cands := disambig.NewProblemFromWords(pl.KB, nil, []string{surf}, 0).Mentions[0].Candidates
		if enricher != nil {
			enricher.EnrichCandidates(cands)
		}
		models[surf] = BuildEEModel(surf, hv, cands, pl.KB.NumEntities())
	}
	return models
}

// Problem builds the (optionally enriched) disambiguation problem for a
// document.
func (pl *Pipeline) Problem(text string, surfaces []string, enricher *Enricher) *disambig.Problem {
	p := disambig.NewProblem(pl.KB, text, surfaces, pl.MaxCandidates)
	if enricher != nil {
		enricher.Enrich(p)
	}
	return p
}
