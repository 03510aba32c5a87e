package experiments

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"aida/internal/disambig"
	"aida/internal/eval"
	"aida/internal/kb"
	"aida/internal/relatedness"
	"aida/internal/wiki"
)

// relatednessKinds are the measure columns of Tables 4.2/4.3.
var relatednessKinds = []relatedness.Kind{
	relatedness.KindKWCS,
	relatedness.KindKPCS,
	relatedness.KindMW,
	relatedness.KindKORE,
	relatedness.KindKORELSHG,
	relatedness.KindKORELSHF,
}

// Table41Row is one seed of the relatedness gold standard with its top and
// bottom candidates (the qualitative Table 4.1).
type Table41Row struct {
	Seed   string
	Domain string
	Best   string
	Worst  string
}

// Table41 reproduces Table 4.1: example seeds with their gold-ranked
// candidates.
func (s *Suite) Table41() []Table41Row {
	gold := s.World.RelatednessGold(wiki.DefaultGoldSpec(s.Sizes.Seed + 7))
	var rows []Table41Row
	for _, g := range gold {
		if len(g.GoldOrder) == 0 {
			continue
		}
		rows = append(rows, Table41Row{
			Seed:   s.World.KB.Entity(g.Seed).Name,
			Domain: g.Domain,
			Best:   s.World.KB.Entity(g.Candidates[g.GoldOrder[0]]).Name,
			Worst:  s.World.KB.Entity(g.Candidates[g.GoldOrder[len(g.GoldOrder)-1]]).Name,
		})
	}
	return rows
}

// FormatTable41 renders the qualitative gold examples.
func FormatTable41(rows []Table41Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4.1: relatedness gold examples (seed → most / least related)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-34s → %s (1) ... %s (last)\n", r.Domain, r.Seed, r.Best, r.Worst)
	}
	return b.String()
}

// SpearmanRow is one row of Table 4.2: per-domain (or aggregate) Spearman
// correlations per measure.
type SpearmanRow struct {
	Group  string
	Scores map[string]float64 // measure name → correlation
}

// Table42 reproduces Table 4.2: the Spearman correlation of each measure's
// candidate ranking with the simulated crowd gold, per domain, for
// link-poor seeds, and overall.
func (s *Suite) Table42() []SpearmanRow {
	gold := s.World.RelatednessGold(wiki.DefaultGoldSpec(s.Sizes.Seed + 7))
	// One engine serves all six kinds: profiles are interned once.
	engine := relatedness.NewScorer(s.World.KB)
	// Per-seed correlations per measure.
	type seedScore struct {
		domain   string
		linkPoor bool
		scores   map[string]float64
	}
	// Link-poor threshold: median in-link count over seeds (the paper uses
	// an absolute 500 for Wikipedia scale).
	var linkCounts []int
	for _, g := range gold {
		linkCounts = append(linkCounts, len(s.World.KB.Entity(g.Seed).InLinks))
	}
	sort.Ints(linkCounts)
	linkPoorMax := 0
	if len(linkCounts) > 0 {
		linkPoorMax = linkCounts[len(linkCounts)/2]
	}
	var perSeed []seedScore
	for _, g := range gold {
		ss := seedScore{
			domain:   g.Domain,
			linkPoor: len(s.World.KB.Entity(g.Seed).InLinks) <= linkPoorMax,
			scores:   map[string]float64{},
		}
		for _, kind := range relatednessKinds {
			vals := make([]float64, len(g.Candidates))
			for i, c := range g.Candidates {
				vals[i] = engine.Relatedness(kind, g.Seed, c)
			}
			ss.scores[kind.String()] = eval.SpearmanFromOrder(g.GoldOrder, vals)
		}
		perSeed = append(perSeed, ss)
	}
	avg := func(filter func(seedScore) bool) map[string]float64 {
		out := map[string]float64{}
		n := 0
		for _, ss := range perSeed {
			if !filter(ss) {
				continue
			}
			n++
			for name, v := range ss.scores {
				out[name] += v
			}
		}
		for name := range out {
			out[name] /= float64(n)
		}
		return out
	}
	var rows []SpearmanRow
	spec := wiki.DefaultGoldSpec(0)
	for _, d := range spec.Domains {
		d := d
		rows = append(rows, SpearmanRow{Group: d, Scores: avg(func(ss seedScore) bool { return ss.domain == d })})
	}
	rows = append(rows, SpearmanRow{Group: "link-poor seeds", Scores: avg(func(ss seedScore) bool { return ss.linkPoor })})
	rows = append(rows, SpearmanRow{Group: "all seeds", Scores: avg(func(seedScore) bool { return true })})
	return rows
}

// FormatTable42 renders the Spearman table.
func FormatTable42(rows []SpearmanRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4.2: Spearman correlation with the crowd gold ranking\n")
	fmt.Fprintf(&b, "  %-18s", "group")
	for _, k := range relatednessKinds {
		fmt.Fprintf(&b, " %10s", k)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s", r.Group)
		for _, k := range relatednessKinds {
			fmt.Fprintf(&b, " %10.3f", r.Scores[k.String()])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// NEDByMeasure is one dataset row of Table 4.3 / Figure 4.2.
type NEDByMeasure struct {
	Dataset string
	Micro   map[string]float64
	Macro   map[string]float64
	LinkAvg map[string]float64
}

// nedMethodFor builds the AIDA configuration used in the Chapter 4 NED
// experiments: full robustness tests with the given coherence measure. The
// WP dataset disables the prior, as in Sec. 4.6.1.
func nedMethodFor(kind relatedness.Kind, usePrior bool) disambig.Method {
	cfg := disambig.Config{
		UsePrior: usePrior, PriorTest: usePrior,
		UseCoherence: true, CoherenceTest: true,
		Measure: kind,
	}
	return disambig.NewAIDAVariant("aida-"+kind.String(), cfg)
}

// Table43 reproduces Table 4.3 / Figure 4.2: NED accuracy per relatedness
// measure on the three datasets. The hard datasets run with an uncapped
// candidate space: their point is long-tail true entities, which a
// popularity-ranked candidate cap would cut off before any relatedness
// measure could recover them (KORE50 averages 631 candidates per mention
// in the original).
func (s *Suite) Table43() []NEDByMeasure {
	datasets := []struct {
		name     string
		docs     []wiki.Document
		usePrior bool
		maxCands int
	}{
		{"CoNLL", s.conll, true, s.Sizes.MaxCandidates},
		{"WP", s.wp, false, 0},
		{"KORE50", s.hard, true, 0},
	}
	var rows []NEDByMeasure
	for _, ds := range datasets {
		row := NEDByMeasure{
			Dataset: ds.name,
			Micro:   map[string]float64{},
			Macro:   map[string]float64{},
			LinkAvg: map[string]float64{},
		}
		for _, kind := range relatednessKinds {
			m := nedMethodFor(kind, ds.usePrior)
			labels, _ := s.runLabelsCapped(m, ds.docs, ds.maxCands)
			row.Micro[kind.String()] = eval.MicroAccuracy(labels, eval.InKBOnly)
			row.Macro[kind.String()] = eval.MacroAccuracy(labels, eval.InKBOnly)
			row.LinkAvg[kind.String()] = s.linkAveragedAccuracy(ds.docs, labels)
		}
		rows = append(rows, row)
	}
	return rows
}

// linkAveragedAccuracy groups mentions by the in-link count of their true
// entity and averages the per-group accuracies (the Link Avg. rows). The
// groups are summed in ascending in-link count, so the float does not
// depend on map iteration order.
func (s *Suite) linkAveragedAccuracy(docs []wiki.Document, labels [][]eval.Label) float64 {
	correct := map[int]int{}
	total := map[int]int{}
	for d := range docs {
		for j, gm := range docs[d].Mentions {
			if gm.Entity == kb.NoEntity {
				continue
			}
			links := len(s.World.KB.Entity(gm.Entity).InLinks)
			total[links]++
			if labels[d][j].Correct() {
				correct[links]++
			}
		}
	}
	if len(total) == 0 {
		return 0
	}
	var sum float64
	for _, links := range slices.Sorted(maps.Keys(total)) {
		sum += float64(correct[links]) / float64(total[links])
	}
	return sum / float64(len(total))
}

// FormatTable43 renders the per-measure NED accuracy table.
func FormatTable43(rows []NEDByMeasure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4.3 / Figure 4.2: NED accuracy per relatedness measure (%%)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s\n", r.Dataset)
		for _, metric := range []struct {
			name string
			vals map[string]float64
		}{{"Micro Avg.", r.Micro}, {"Macro Avg.", r.Macro}, {"Link Avg.", r.LinkAvg}} {
			fmt.Fprintf(&b, "    %-12s", metric.name)
			for _, k := range relatednessKinds {
				fmt.Fprintf(&b, " %10.2f", 100*metric.vals[k.String()])
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	fmt.Fprintf(&b, "    %-12s", "(columns)")
	for _, k := range relatednessKinds {
		fmt.Fprintf(&b, " %10s", k)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// LinkBucket is one point of Figure 4.3: cumulative accuracy over mentions
// whose true entity has at most MaxLinks in-links.
type LinkBucket struct {
	MaxLinks int
	Accuracy map[string]float64
	Mentions int
}

// Figure43 reproduces Figure 4.3: cumulative average precision against the
// in-link count of the true entity on the hard (KORE50-like) dataset, for
// MW, KORE and the LSH variants.
func (s *Suite) Figure43() []LinkBucket {
	kinds := []relatedness.Kind{relatedness.KindMW, relatedness.KindKORE,
		relatedness.KindKORELSHG, relatedness.KindKORELSHF}
	// Collect per-mention correctness and true-entity link counts.
	type obs struct {
		links   int
		correct map[string]bool
	}
	var all []obs
	for _, kind := range kinds {
		m := nedMethodFor(kind, true)
		labels, _ := s.runLabelsCapped(m, s.hard, 0)
		oi := 0
		for d := range s.hard {
			for j, gm := range s.hard[d].Mentions {
				if gm.Entity == kb.NoEntity {
					continue
				}
				if kind == kinds[0] {
					all = append(all, obs{
						links:   len(s.World.KB.Entity(gm.Entity).InLinks),
						correct: map[string]bool{},
					})
				}
				all[oi].correct[kind.String()] = labels[d][j].Correct()
				oi++
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].links < all[j].links })
	// Cumulative accuracy at exponentially spaced link thresholds.
	thresholds := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var out []LinkBucket
	for _, th := range thresholds {
		bucket := LinkBucket{MaxLinks: th, Accuracy: map[string]float64{}}
		counts := map[string]int{}
		n := 0
		for _, o := range all {
			if o.links > th {
				break
			}
			n++
			for _, kind := range kinds {
				if o.correct[kind.String()] {
					counts[kind.String()]++
				}
			}
		}
		if n == 0 {
			continue
		}
		bucket.Mentions = n
		for _, kind := range kinds {
			bucket.Accuracy[kind.String()] = float64(counts[kind.String()]) / float64(n)
		}
		out = append(out, bucket)
	}
	return out
}

// FormatFigure43 renders the cumulative link-poor accuracy series.
func FormatFigure43(buckets []LinkBucket) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4.3: cumulative accuracy vs in-links of the true entity (hard split)\n")
	fmt.Fprintf(&b, "  %-10s %9s %9s %12s %12s %9s\n", "≤ links", "MW", "KORE", "KORE-LSH-G", "KORE-LSH-F", "mentions")
	for _, bk := range buckets {
		fmt.Fprintf(&b, "  %-10d %9.3f %9.3f %12.3f %12.3f %9d\n",
			bk.MaxLinks, bk.Accuracy["MW"], bk.Accuracy["KORE"],
			bk.Accuracy["KORE-LSH-G"], bk.Accuracy["KORE-LSH-F"], bk.Mentions)
	}
	return b.String()
}

// EfficiencyRow is one method row of Table 4.4 (and the series behind
// Figures 4.4/4.5).
type EfficiencyRow struct {
	Method          string
	MeanComparisons float64
	StdComparisons  float64
	Q90Comparisons  float64
	MeanSeconds     float64
	StdSeconds      float64
	Q90Seconds      float64
	// PerDoc holds (candidate count, comparisons, seconds) per document,
	// sorted by candidate count — the x/y series of Figures 4.4/4.5.
	PerDoc []DocCost
}

// DocCost is the per-document cost sample.
type DocCost struct {
	Entities    int
	Comparisons int
	Seconds     float64
}

// Table44 reproduces Table 4.4 / Figures 4.4/4.5: the number of pairwise
// relatedness computations and the runtime of AIDA under MW, exact KORE and
// the two LSH-accelerated variants over the CoNLL-like collection.
func (s *Suite) Table44() []EfficiencyRow {
	kinds := []relatedness.Kind{relatedness.KindMW, relatedness.KindKORE,
		relatedness.KindKORELSHG, relatedness.KindKORELSHF}
	var rows []EfficiencyRow
	for _, kind := range kinds {
		m := nedMethodFor(kind, true)
		var comps, secs []float64
		var perDoc []DocCost
		for i := range s.conll {
			p := s.problemFor(&s.conll[i])
			start := time.Now()
			out := m.Disambiguate(p)
			el := time.Since(start).Seconds()
			comps = append(comps, float64(out.Stats.Comparisons))
			secs = append(secs, el)
			perDoc = append(perDoc, DocCost{
				Entities:    out.Stats.GraphEntities,
				Comparisons: out.Stats.Comparisons,
				Seconds:     el,
			})
		}
		sort.Slice(perDoc, func(i, j int) bool { return perDoc[i].Entities < perDoc[j].Entities })
		rows = append(rows, EfficiencyRow{
			Method:          kind.String(),
			MeanComparisons: eval.Mean(comps),
			StdComparisons:  eval.Stddev(comps),
			Q90Comparisons:  eval.Quantile(comps, 0.9),
			MeanSeconds:     eval.Mean(secs),
			StdSeconds:      eval.Stddev(secs),
			Q90Seconds:      eval.Quantile(secs, 0.9),
			PerDoc:          perDoc,
		})
	}
	return rows
}

// FormatTable44 renders the efficiency table.
func FormatTable44(rows []EfficiencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4.4 / Figures 4.4-4.5: relatedness efficiency per document\n")
	fmt.Fprintf(&b, "  %-12s %12s %12s %12s %12s %12s %12s\n",
		"method", "cmp mean", "cmp stddev", "cmp q90", "time mean(s)", "time stddev", "time q90")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %12.0f %12.0f %12.0f %12.5f %12.5f %12.5f\n",
			r.Method, r.MeanComparisons, r.StdComparisons, r.Q90Comparisons,
			r.MeanSeconds, r.StdSeconds, r.Q90Seconds)
	}
	return b.String()
}
