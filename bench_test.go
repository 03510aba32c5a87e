package aida

// One benchmark per table and figure of the dissertation's evaluation.
// Each bench regenerates the experiment through internal/experiments and
// reports the headline quality metrics alongside the runtime, so
// `go test -bench=. -benchmem` reproduces the whole evaluation chapter.
// cmd/experiments prints the same rows in the paper's layout.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"aida/internal/experiments"
	"aida/internal/wiki"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite shares one generated world across all table benches.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.Sizes{
			Seed:           42,
			Entities:       800,
			CoNLLDocs:      25,
			HardDocs:       25,
			WPDocs:         25,
			NewsDays:       5,
			NewsDocsPerDay: 8,
			MaxCandidates:  10,
			PerturbIters:   5,
		})
	})
	return suite
}

// BenchmarkTable31_DatasetProperties regenerates Table 3.1.
func BenchmarkTable31_DatasetProperties(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		st := s.Table31()
		b.ReportMetric(st.AvgMentionsPerDoc, "mentions/doc")
		b.ReportMetric(st.AvgCandidatesPerMention, "cands/mention")
	}
}

// BenchmarkTable32_CoNLLAccuracy regenerates Table 3.2 / Figure 3.3.
func BenchmarkTable32_CoNLLAccuracy(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table32()
		for _, r := range rows {
			switch r.Method {
			case "r-prior sim-k r-coh":
				b.ReportMetric(100*r.Micro, "aida-micro-%")
			case "prior":
				b.ReportMetric(100*r.Micro, "prior-micro-%")
			case "Kul CI":
				b.ReportMetric(100*r.Micro, "kulci-micro-%")
			}
		}
	}
}

// BenchmarkTable41_RelatednessGold regenerates the gold dataset of
// Table 4.1.
func BenchmarkTable41_RelatednessGold(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table41()
		b.ReportMetric(float64(len(rows)), "seeds")
	}
}

// BenchmarkTable42_SpearmanRelatedness regenerates Table 4.2.
func BenchmarkTable42_SpearmanRelatedness(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table42()
		all := rows[len(rows)-1]
		b.ReportMetric(all.Scores["KORE"], "kore-rho")
		b.ReportMetric(all.Scores["MW"], "mw-rho")
	}
}

// BenchmarkTable43_RelatednessNED regenerates Table 4.3 / Figure 4.2.
func BenchmarkTable43_RelatednessNED(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table43()
		for _, r := range rows {
			if r.Dataset == "KORE50" {
				b.ReportMetric(100*r.Micro["KORE"], "kore50-kore-%")
				b.ReportMetric(100*r.Micro["MW"], "kore50-mw-%")
			}
		}
	}
}

// BenchmarkFigure43_LinkPoorAccuracy regenerates Figure 4.3.
func BenchmarkFigure43_LinkPoorAccuracy(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		buckets := s.Figure43()
		if len(buckets) > 0 {
			first := buckets[0]
			b.ReportMetric(first.Accuracy["KORE"], "linkpoor-kore")
			b.ReportMetric(first.Accuracy["MW"], "linkpoor-mw")
		}
	}
}

// BenchmarkTable44_RelatednessEfficiency regenerates Table 4.4 and the
// series of Figures 4.4/4.5.
func BenchmarkTable44_RelatednessEfficiency(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table44()
		for _, r := range rows {
			switch r.Method {
			case "KORE":
				b.ReportMetric(r.MeanComparisons, "kore-cmp/doc")
			case "KORE-LSH-F":
				b.ReportMetric(r.MeanComparisons, "lshf-cmp/doc")
			}
		}
	}
}

// BenchmarkTable51_Confidence regenerates Table 5.1 / Figure 5.3.
func BenchmarkTable51_Confidence(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table51()
		for _, r := range rows {
			if r.Assessor == "CONF" {
				b.ReportMetric(100*r.MAP, "conf-map-%")
				b.ReportMetric(100*r.Prec95, "conf-prec95-%")
			}
			if r.Assessor == "prior" {
				b.ReportMetric(100*r.MAP, "prior-map-%")
			}
		}
	}
}

// BenchmarkTable52_EEDatasetProperties regenerates Table 5.2.
func BenchmarkTable52_EEDatasetProperties(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		st := s.Table52()
		b.ReportMetric(float64(st.MentionsNoEntity), "ee-mentions")
	}
}

// BenchmarkTable53_EEDiscovery regenerates Table 5.3.
func BenchmarkTable53_EEDiscovery(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table53()
		for _, r := range rows {
			switch r.Method {
			case "EEsim":
				b.ReportMetric(100*r.EE.Precision, "eesim-prec-%")
			case "AIDAsim":
				b.ReportMetric(100*r.EE.Precision, "aidasim-prec-%")
			}
		}
	}
}

// BenchmarkTable54_NEDEE regenerates Table 5.4.
func BenchmarkTable54_NEDEE(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows := s.Table54()
		for _, r := range rows {
			if r.Method == "AIDA-EEsim" {
				b.ReportMetric(100*r.Micro, "aida-eesim-micro-%")
			}
		}
	}
}

// BenchmarkFigure54_EEOverDays regenerates Figure 5.4.
func BenchmarkFigure54_EEOverDays(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		points := s.Figure54()
		if len(points) > 0 {
			last := points[len(points)-1]
			b.ReportMetric(last.PrecEnrich, "prec-enriched")
			b.ReportMetric(last.Prec, "prec-plain")
		}
	}
}

// BenchmarkAnnotateThroughput measures the end-to-end pipeline on a single
// document (not a paper table; an operational baseline).
func BenchmarkAnnotateThroughput(b *testing.B) {
	s := benchSuite()
	sys := New(s.World.KB, WithMaxCandidates(10))
	text := "They performed Kashmir, written by Page and Plant. Page played unusual chords on his Gibson."
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		annotateDoc(b, sys, text)
	}
}

// batchWorkerCounts is the scaling curve the committed bench JSON records:
// 1, 2, 4 and NumCPU workers (deduplicated and sorted), so cross-machine
// runs always share the 1/2/4 points and each machine adds its own
// saturation point.
func batchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	n := runtime.GOMAXPROCS(0)
	if n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	return counts
}

// BenchmarkAnnotateBatch tracks document-level fan-out across the full
// worker curve {1, 2, 4, NumCPU}, on a fresh System (cold) and on one that
// has annotated the corpus once (warm: the KB's keyphrases are compiled).
func BenchmarkAnnotateBatch(b *testing.B) {
	s := benchSuite()
	docs := make([]string, 32)
	for i, d := range s.World.GenerateCorpus(wiki.CoNLLSpec(len(docs), 123)) {
		docs[i] = d.Text
	}
	type benchCase struct {
		name    string
		workers int
		warm    bool
	}
	var cases []benchCase
	for _, warm := range []bool{false, true} {
		mode := "cold"
		if warm {
			mode = "warm"
		}
		for _, w := range batchWorkerCounts() {
			cases = append(cases, benchCase{fmt.Sprintf("%s/workers=%d", mode, w), w, warm})
		}
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := New(s.World.KB, WithMaxCandidates(10))
			if bc.warm {
				annotateCorpus(b, sys, docs, WithParallelism(bc.workers)) // compile the KB's keyphrases
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					annotateCorpus(b, sys, docs, WithParallelism(bc.workers))
				}
			} else {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sys = New(s.World.KB, WithMaxCandidates(10)) // fresh System
					b.StartTimer()
					annotateCorpus(b, sys, docs, WithParallelism(bc.workers))
				}
			}
			b.ReportMetric(float64(len(docs))*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// BenchmarkAnnotateDocAllocs isolates the per-document allocation budget of
// the hot path — one document, sequential, warm KB — so B/op and
// allocs/op are exactly what one AnnotateDoc costs the heap, with no batch
// machinery in the numbers. TestAnnotateDocAllocBudget asserts a ceiling on
// the same document; this benchmark is for looking at the number while
// working on it.
func BenchmarkAnnotateDocAllocs(b *testing.B) {
	s := benchSuite()
	docs := s.World.GenerateCorpus(wiki.CoNLLSpec(4, 123))
	sys := New(s.World.KB, WithMaxCandidates(10))
	ctx := context.Background()
	for _, d := range docs { // compile the KB's keyphrases
		if _, err := sys.AnnotateDoc(ctx, d.Text); err != nil {
			b.Fatal(err)
		}
	}
	text := docs[0].Text
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AnnotateDoc(ctx, text); err != nil {
			b.Fatal(err)
		}
	}
}
