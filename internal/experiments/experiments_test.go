package experiments

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"aida/internal/eval"
	"aida/internal/kb"
	"aida/internal/wiki"
)

// tinySuite keeps the test workload small; the real scale is exercised by
// the repository-level benchmarks.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	return NewSuite(Sizes{
		Seed:           3,
		Entities:       300,
		CoNLLDocs:      6,
		HardDocs:       6,
		WPDocs:         6,
		NewsDays:       4,
		NewsDocsPerDay: 4,
		MaxCandidates:  8,
		PerturbIters:   3,
	})
}

func TestTable31(t *testing.T) {
	s := tinySuite(t)
	st := s.Table31()
	if st.Docs != 6 || st.Mentions == 0 {
		t.Fatalf("bad stats: %+v", st)
	}
	if out := FormatTable31(st); !strings.Contains(out, "Table 3.1") {
		t.Error("format missing header")
	}
}

func TestTable32(t *testing.T) {
	s := tinySuite(t)
	rows := s.Table32()
	if len(rows) != 10 {
		t.Fatalf("want 10 method rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Micro < 0 || r.Micro > 1 || r.Macro < 0 || r.Macro > 1 || r.MAP < 0 || r.MAP > 1 {
			t.Fatalf("row out of range: %+v", r)
		}
	}
	out := FormatTable32(rows)
	if !strings.Contains(out, "r-prior sim-k r-coh") {
		t.Error("format missing AIDA variant")
	}
}

func TestTable41And42(t *testing.T) {
	s := tinySuite(t)
	if rows := s.Table41(); len(rows) == 0 {
		t.Fatal("no gold rows")
	}
	rows := s.Table42()
	if len(rows) < 3 {
		t.Fatalf("want per-domain + aggregate rows, got %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Group != "all seeds" {
		t.Fatalf("last row should aggregate, got %q", last.Group)
	}
	for name, v := range last.Scores {
		if v < -1 || v > 1 {
			t.Fatalf("correlation %s out of range: %v", name, v)
		}
	}
}

func TestTable43(t *testing.T) {
	s := tinySuite(t)
	rows := s.Table43()
	if len(rows) != 3 {
		t.Fatalf("want 3 dataset rows, got %d", len(rows))
	}
	for _, r := range rows {
		for _, v := range r.Micro {
			if v < 0 || v > 1 {
				t.Fatalf("%s micro out of range: %v", r.Dataset, v)
			}
		}
	}
	if out := FormatTable43(rows); !strings.Contains(out, "KORE50") {
		t.Error("format missing dataset")
	}
}

func TestFigure43(t *testing.T) {
	s := tinySuite(t)
	buckets := s.Figure43()
	if len(buckets) == 0 {
		t.Fatal("no buckets")
	}
	prev := 0
	for _, b := range buckets {
		if b.Mentions < prev {
			t.Fatal("cumulative mention counts must not decrease")
		}
		prev = b.Mentions
	}
}

func TestTable44(t *testing.T) {
	s := tinySuite(t)
	rows := s.Table44()
	if len(rows) != 4 {
		t.Fatalf("want 4 methods, got %d", len(rows))
	}
	byName := map[string]EfficiencyRow{}
	for _, r := range rows {
		byName[r.Method] = r
		if r.MeanSeconds < 0 || r.MeanComparisons < 0 {
			t.Fatalf("negative cost: %+v", r)
		}
	}
	// The LSH-F variant must prune comparisons against exact KORE.
	if byName["KORE-LSH-F"].MeanComparisons > byName["KORE"].MeanComparisons {
		t.Errorf("LSH-F should not compare more pairs than exact KORE: %v vs %v",
			byName["KORE-LSH-F"].MeanComparisons, byName["KORE"].MeanComparisons)
	}
}

func TestTable51(t *testing.T) {
	s := tinySuite(t)
	rows := s.Table51()
	if len(rows) != 4 {
		t.Fatalf("want 4 assessors, got %d", len(rows))
	}
	for _, r := range rows {
		if r.MAP < 0 || r.MAP > 1 {
			t.Fatalf("MAP out of range: %+v", r)
		}
		if len(r.Curve) != 10 {
			t.Fatalf("PR curve should have 10 points, got %d", len(r.Curve))
		}
	}
	if out := FormatFigure53(rows); !strings.Contains(out, "CONF") {
		t.Error("figure missing CONF")
	}
}

func TestTable52(t *testing.T) {
	s := tinySuite(t)
	st := s.Table52()
	if st.Docs == 0 || st.Mentions == 0 {
		t.Fatalf("empty labeled news: %+v", st)
	}
}

func TestTable53And54(t *testing.T) {
	s := tinySuite(t)
	rows := s.Table53()
	if len(rows) != 5 {
		t.Fatalf("want 5 systems, got %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Method] = true
		if r.EE.Precision < 0 || r.EE.Precision > 1 {
			t.Fatalf("EE precision out of range: %+v", r)
		}
	}
	for _, want := range []string{"AIDAsim", "AIDAcoh", "IW", "EEsim", "EEcoh"} {
		if !names[want] {
			t.Fatalf("missing system %s", want)
		}
	}
	rows54 := s.Table54()
	if len(rows54) != 5 {
		t.Fatalf("table 5.4 wants 5 rows, got %d", len(rows54))
	}
	if out := FormatTable53("Table 5.4", rows54); !strings.Contains(out, "AIDA-EEsim") {
		t.Error("format missing pipeline row")
	}
}

func TestFigure54(t *testing.T) {
	s := tinySuite(t)
	points := s.Figure54()
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		for _, v := range []float64{p.Prec, p.Rec, p.PrecEnrich, p.RecEnrich} {
			if v < 0 || v > 1 {
				t.Fatalf("point out of range: %+v", p)
			}
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := tinySuite(t).Table32()
	b := tinySuite(t).Table32()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestLinkAveragedAccuracyDeterministic sums Link Avg.'s per-bucket
// accuracies many times: the float is bit-identical from run to run only
// if the buckets are summed in one fixed order, ascending in-link count.
func TestLinkAveragedAccuracyDeterministic(t *testing.T) {
	w := wiki.Generate(wiki.Config{Seed: 3, Entities: 3000})
	s := &Suite{World: w}
	// One document mentions every entity; every third mention is wrong.
	var doc wiki.Document
	var labels []eval.Label
	correct, total := map[int]int{}, map[int]int{}
	for e := range w.KB.NumEntities() {
		id := kb.EntityID(e)
		pred := id
		if e%3 == 0 {
			pred = kb.NoEntity
		}
		doc.Mentions = append(doc.Mentions, wiki.GoldMention{Entity: id})
		labels = append(labels, eval.Label{Gold: id, Pred: pred})
		links := len(w.KB.Entity(id).InLinks)
		total[links]++
		if pred == id {
			correct[links]++
		}
	}
	if len(total) < 30 {
		t.Fatalf("%d in-link buckets, want at least 30 for the summation order to show", len(total))
	}
	var want float64
	for _, links := range slices.Sorted(maps.Keys(total)) {
		want += float64(correct[links]) / float64(total[links])
	}
	want /= float64(len(total))
	for run := range 200 {
		got := s.linkAveragedAccuracy([]wiki.Document{doc}, [][]eval.Label{labels})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: Link Avg. %v, want the ascending-order sum %v (%d buckets)", run, got, want, len(total))
		}
	}
}
