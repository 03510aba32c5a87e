// Package experiments regenerates every table and figure of the
// dissertation's evaluation chapters on the synthetic world. Each
// TableXY/FigureXY method returns structured rows; Format helpers render
// them the way the paper prints them. cmd/experiments and the repository's
// bench_test.go are thin wrappers around this package.
//
// NED-EE's emerging-entity discovery (Chapter 5: keyphrase harvesting,
// placeholder models by model difference, Algorithm 3 and the news-stream
// pipeline) lives here too, because only Tables 5.3/5.4 and Figure 5.4 run
// it; the served CONF confidence is package emerge.
package experiments

import (
	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/eval"
	"aida/internal/kb"
	"aida/internal/wiki"
)

// Sizes scales the experiment workloads. The defaults run the full suite in
// a few minutes on a laptop; the paper-scale numbers are 10–30× larger.
type Sizes struct {
	Seed           int64
	Entities       int // KB size (default 1200)
	CoNLLDocs      int // Table 3.1/3.2/5.1 corpus (default 50)
	HardDocs       int // KORE50-like split (default 40)
	WPDocs         int // WP-like split (default 50)
	NewsDays       int // news-stream length (default 6)
	NewsDocsPerDay int // stream density (default 12)
	MaxCandidates  int // candidate cap per mention (default 12)
	PerturbIters   int // perturbation rounds for CONF (default 8)
}

func (s Sizes) withDefaults() Sizes {
	if s.Entities <= 0 {
		s.Entities = 1200
	}
	if s.CoNLLDocs <= 0 {
		s.CoNLLDocs = 50
	}
	if s.HardDocs <= 0 {
		s.HardDocs = 40
	}
	if s.WPDocs <= 0 {
		s.WPDocs = 50
	}
	if s.NewsDays <= 0 {
		s.NewsDays = 6
	}
	if s.NewsDocsPerDay <= 0 {
		s.NewsDocsPerDay = 12
	}
	if s.MaxCandidates <= 0 {
		s.MaxCandidates = 12
	}
	if s.PerturbIters <= 0 {
		s.PerturbIters = 8
	}
	return s
}

// Suite holds the generated world and corpora shared by all experiments.
type Suite struct {
	Sizes Sizes
	World *wiki.World

	conll []wiki.Document
	hard  []wiki.Document
	wp    []wiki.Document
	news  []wiki.Document

	eeExp *eeExperiment // cached: shared by Table53 and Table54
}

// NewSuite generates the world and corpora.
func NewSuite(sizes Sizes) *Suite {
	sizes = sizes.withDefaults()
	w := wiki.Generate(wiki.Config{Seed: sizes.Seed + 1, Entities: sizes.Entities})
	s := &Suite{Sizes: sizes, World: w}
	s.conll = w.GenerateCorpus(wiki.CoNLLSpec(sizes.CoNLLDocs, sizes.Seed+2))
	s.hard = w.GenerateCorpus(wiki.HardSpec(sizes.HardDocs, sizes.Seed+3))
	s.wp = w.GenerateCorpus(wiki.WPSpec(sizes.WPDocs, sizes.Seed+4))
	s.news = w.NewsStream(wiki.DefaultNewsSpec(sizes.NewsDays, sizes.NewsDocsPerDay, sizes.Seed+5))
	return s
}

// problemFor builds the disambiguation problem of a document.
func (s *Suite) problemFor(doc *wiki.Document) *disambig.Problem {
	return disambig.NewProblem(s.World.KB, doc.Text, doc.Surfaces(), s.Sizes.MaxCandidates)
}

// runLabels runs a method over a corpus and returns per-document labels and
// the confidence-ranked prediction list (confidence = normalized score).
func (s *Suite) runLabels(m disambig.Method, docs []wiki.Document) ([][]eval.Label, []eval.Ranked) {
	return s.runLabelsCapped(m, docs, s.Sizes.MaxCandidates)
}

// runLabelsCapped is runLabels with an explicit per-mention candidate cap
// (0 = uncapped, for long-tail datasets).
func (s *Suite) runLabelsCapped(m disambig.Method, docs []wiki.Document, maxCands int) ([][]eval.Label, []eval.Ranked) {
	var all [][]eval.Label
	var ranked []eval.Ranked
	for i := range docs {
		doc := &docs[i]
		p := disambig.NewProblem(s.World.KB, doc.Text, doc.Surfaces(), maxCands)
		out := m.Disambiguate(p)
		conf := emerge.NormConfidence(out)
		labels := make([]eval.Label, len(doc.Mentions))
		for j, gm := range doc.Mentions {
			labels[j] = eval.Label{Gold: gm.Entity, Pred: out.Results[j].Entity}
			if gm.Entity != kb.NoEntity {
				ranked = append(ranked, eval.Ranked{
					Confidence: conf[j],
					Correct:    labels[j].Correct(),
				})
			}
		}
		all = append(all, labels)
	}
	return all, ranked
}
