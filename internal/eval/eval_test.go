package eval

import (
	"math"
	"testing"
	"testing/quick"

	"aida/internal/kb"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMicroMacroAccuracy(t *testing.T) {
	docs := [][]Label{
		{{Gold: 1, Pred: 1}, {Gold: 2, Pred: 3}},           // 1/2
		{{Gold: 4, Pred: 4}, {Gold: 5, Pred: 5}},           // 2/2
		{{Gold: kb.NoEntity, Pred: 9}, {Gold: 6, Pred: 6}}, // 1/1 in InKBOnly
	}
	if got := MicroAccuracy(docs, InKBOnly); !almost(got, 4.0/5.0) {
		t.Errorf("micro = %v, want 0.8", got)
	}
	if got := MacroAccuracy(docs, InKBOnly); !almost(got, (0.5+1+1)/3) {
		t.Errorf("macro = %v", got)
	}
}

func TestAccuracyWithEE(t *testing.T) {
	docs := [][]Label{{
		{Gold: kb.NoEntity, Pred: kb.NoEntity}, // correct EE
		{Gold: kb.NoEntity, Pred: 3},           // missed EE
		{Gold: 1, Pred: 1},
	}}
	if got := MicroAccuracy(docs, WithEE); !almost(got, 2.0/3.0) {
		t.Errorf("micro with EE = %v, want 2/3", got)
	}
	if got := MicroAccuracy(docs, InKBOnly); !almost(got, 1) {
		t.Errorf("micro in-KB = %v, want 1", got)
	}
}

func TestEmptyDocsSkippedInMacro(t *testing.T) {
	docs := [][]Label{
		{{Gold: kb.NoEntity, Pred: kb.NoEntity}}, // no in-KB mentions
		{{Gold: 1, Pred: 1}},
	}
	if got := MacroAccuracy(docs, InKBOnly); !almost(got, 1) {
		t.Errorf("macro should skip empty docs, got %v", got)
	}
}

func TestEEQuality(t *testing.T) {
	docs := [][]Label{{
		{Gold: kb.NoEntity, Pred: kb.NoEntity}, // tp
		{Gold: kb.NoEntity, Pred: 1},           // fn
		{Gold: 2, Pred: kb.NoEntity},           // fp
		{Gold: 3, Pred: 3},
	}}
	m := EEQuality(docs)
	if !almost(m.Precision, 0.5) {
		t.Errorf("precision = %v, want 0.5", m.Precision)
	}
	if !almost(m.Recall, 0.5) {
		t.Errorf("recall = %v, want 0.5", m.Recall)
	}
	if !almost(m.F1, 0.5) {
		t.Errorf("f1 = %v, want 0.5", m.F1)
	}
}

func TestEEQualityNoPredictions(t *testing.T) {
	docs := [][]Label{{{Gold: kb.NoEntity, Pred: 1}}}
	m := EEQuality(docs)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("all-zero expected, got %+v", m)
	}
}

func TestMAPPerfectRanking(t *testing.T) {
	items := []Ranked{
		{0.9, true}, {0.8, true}, {0.2, false}, {0.1, false},
	}
	// Prefix precisions 1, 1, 2/3, 1/2 → interpolated mean.
	want := (1.0 + 1.0 + 2.0/3.0 + 0.5) / 4
	if got := MAP(items); !almost(got, want) {
		t.Errorf("perfect ranking MAP = %v, want %v", got, want)
	}
}

func TestMAPWorstRanking(t *testing.T) {
	items := []Ranked{
		{0.9, false}, {0.8, false}, {0.2, true}, {0.1, true},
	}
	good := MAP([]Ranked{{0.9, true}, {0.8, true}, {0.2, false}, {0.1, false}})
	bad := MAP(items)
	if bad >= good {
		t.Errorf("bad ranking %v should be below good ranking %v", bad, good)
	}
}

func TestMAPBounds(t *testing.T) {
	f := func(confs []float64, correct []bool) bool {
		n := len(confs)
		if len(correct) < n {
			n = len(correct)
		}
		items := make([]Ranked, n)
		for i := 0; i < n; i++ {
			items[i] = Ranked{confs[i], correct[i]}
		}
		m := MAP(items)
		return m >= 0 && m <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecisionAtConfidence(t *testing.T) {
	items := []Ranked{
		{0.99, true}, {0.97, true}, {0.96, false}, {0.5, false},
	}
	p, n := PrecisionAtConfidence(items, 0.95)
	if n != 3 || !almost(p, 2.0/3.0) {
		t.Errorf("p=%v n=%d, want 2/3 and 3", p, n)
	}
	p, n = PrecisionAtConfidence(items, 1.1)
	if n != 0 || p != 0 {
		t.Errorf("empty threshold bucket: p=%v n=%d", p, n)
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	items := []Ranked{
		{0.9, true}, {0.8, true}, {0.7, false}, {0.6, true}, {0.5, false},
	}
	curve := PRCurve(items, 5)
	if len(curve) != 5 {
		t.Fatalf("want 5 points, got %d", len(curve))
	}
	if !almost(curve[4].Recall, 1) {
		t.Errorf("last point recall = %v", curve[4].Recall)
	}
	if curve[0].Precision < curve[4].Precision {
		t.Errorf("confidence-ranked curve should not increase: %v", curve)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if got := Spearman(a, b); !almost(got, 1) {
		t.Errorf("perfect correlation = %v", got)
	}
	c := []float64{50, 40, 30, 20, 10}
	if got := Spearman(a, c); !almost(got, -1) {
		t.Errorf("perfect anti-correlation = %v", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{1, 2, 2, 3}
	if got := Spearman(a, b); !almost(got, 1) {
		t.Errorf("tied identical vectors = %v, want 1", got)
	}
}

func TestSpearmanFromOrder(t *testing.T) {
	// gold: candidate 2 best, then 0, then 1.
	gold := []int{2, 0, 1}
	perfect := []float64{0.5, 0.1, 0.9}
	if got := SpearmanFromOrder(gold, perfect); !almost(got, 1) {
		t.Errorf("perfect order = %v", got)
	}
	inverted := []float64{0.5, 0.9, 0.1}
	if got := SpearmanFromOrder(gold, inverted); got >= 0 {
		t.Errorf("inverted order should be negative, got %v", got)
	}
}

func TestSpearmanRange(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n < 2 {
			return true
		}
		v := Spearman(a[:n], b[:n])
		return v >= -1-1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStddevQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if !almost(Mean(v), 3) {
		t.Errorf("mean = %v", Mean(v))
	}
	if math.Abs(Stddev(v)-1.5811388) > 1e-6 {
		t.Errorf("stddev = %v", Stddev(v))
	}
	if got := Quantile(v, 0.9); got != 5 {
		t.Errorf("0.9-quantile = %v", got)
	}
	if got := Quantile(v, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
}

func BenchmarkMAP(b *testing.B) {
	items := make([]Ranked, 1000)
	for i := range items {
		items[i] = Ranked{Confidence: float64(i%97) / 97, Correct: i%3 == 0}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MAP(items)
	}
}
