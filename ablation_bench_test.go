package aida

// Ablation benchmarks for three design choices: the robustness tests
// (Sec. 3.5), the candidate cap, and the LSH band geometry (Sec. 4.4.2).
// Each bench reports the quality impact of removing/varying one choice
// while holding everything else fixed.

import (
	"fmt"
	"testing"

	"aida/internal/disambig"
	"aida/internal/eval"
	"aida/internal/kb"
	"aida/internal/relatedness"
	"aida/internal/wiki"
)

// ablationRun scores one AIDA configuration on the shared CoNLL-like corpus.
func ablationRun(b *testing.B, cfg disambig.Config, maxCands int) float64 {
	b.Helper()
	s := benchSuite()
	docs := s.World.GenerateCorpus(wiki.CoNLLSpec(15, 99))
	m := disambig.NewAIDAVariant("ablation", cfg)
	var labels [][]eval.Label
	for i := range docs {
		doc := &docs[i]
		p := disambig.NewProblem(s.World.KB, doc.Text, doc.Surfaces(), maxCands)
		out := m.Disambiguate(p)
		row := make([]eval.Label, len(doc.Mentions))
		for j, gm := range doc.Mentions {
			row[j] = eval.Label{Gold: gm.Entity, Pred: out.Results[j].Entity}
		}
		labels = append(labels, row)
	}
	return eval.MicroAccuracy(labels, eval.InKBOnly)
}

// BenchmarkAblationRobustnessTests compares the full AIDA against variants
// with the prior test and the coherence test disabled.
func BenchmarkAblationRobustnessTests(b *testing.B) {
	full := disambig.Config{UsePrior: true, PriorTest: true, UseCoherence: true,
		CoherenceTest: true, Measure: relatedness.KindMW}
	noPriorTest := full
	noPriorTest.PriorTest = false
	noCohTest := full
	noCohTest.CoherenceTest = false
	for i := 0; i < b.N; i++ {
		b.ReportMetric(100*ablationRun(b, full, 10), "full-%")
		b.ReportMetric(100*ablationRun(b, noPriorTest, 10), "no-rprior-%")
		b.ReportMetric(100*ablationRun(b, noCohTest, 10), "no-rcoh-%")
	}
}

// BenchmarkAblationCandidateCap varies the per-mention candidate cap.
func BenchmarkAblationCandidateCap(b *testing.B) {
	cfg := disambig.Config{UsePrior: true, PriorTest: true, UseCoherence: true,
		CoherenceTest: true, Measure: relatedness.KindMW}
	for _, cap := range []int{3, 10, 0} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(100*ablationRun(b, cfg, cap), "micro-%")
			}
		})
	}
}

// BenchmarkAblationLSHGeometry compares the pair-pruning power of the two
// published LSH geometries (200×1 recall-oriented vs 1000×2 precision-
// oriented) on the same candidate sets.
func BenchmarkAblationLSHGeometry(b *testing.B) {
	s := benchSuite()
	ents := make([]kb.EntityID, 0, 120)
	for _, domain := range wiki.Domains() {
		ents = append(ents, s.World.PopularEntities(domain, 15)...)
	}
	exact := len(ents) * (len(ents) - 1) / 2
	sets := make([][]kb.Keyphrase, len(ents))
	for i, e := range ents {
		sets[i] = s.World.KB.Entity(e).Keyphrases
	}
	g := relatedness.NewLSHFilter(relatedness.KindKORELSHG)
	f := relatedness.NewLSHFilter(relatedness.KindKORELSHF)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := len(g.PairsOfSets(sets))
		pf := len(f.PairsOfSets(sets))
		b.ReportMetric(float64(exact), "pairs-exact")
		b.ReportMetric(float64(pg), "pairs-lshg")
		b.ReportMetric(float64(pf), "pairs-lshf")
	}
}
