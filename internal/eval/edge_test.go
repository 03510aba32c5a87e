package eval

import (
	"math"
	"testing"

	"aida/internal/kb"
)

// Error-path and degenerate-input coverage: every measure must return its
// documented fallback (not NaN, not a panic) on empty, mismatched or
// constant inputs — the shapes evaluation drivers actually produce on
// empty corpora, all-OOE documents, or single-method runs.

func TestAccuracyDegenerateInputs(t *testing.T) {
	if got := MicroAccuracy(nil, InKBOnly); got != 0 {
		t.Errorf("MicroAccuracy(nil) = %v, want 0", got)
	}
	if got := MacroAccuracy(nil, WithEE); got != 0 {
		t.Errorf("MacroAccuracy(nil) = %v, want 0", got)
	}
	// A corpus of only out-of-KB gold mentions contributes nothing under
	// InKBOnly: the accuracy must be the 0 fallback, not NaN.
	ooeOnly := [][]Label{{{Gold: kb.NoEntity, Pred: kb.NoEntity}}}
	if got := MicroAccuracy(ooeOnly, InKBOnly); got != 0 {
		t.Errorf("MicroAccuracy(all-OOE, InKBOnly) = %v, want 0", got)
	}
	if got := MacroAccuracy(ooeOnly, InKBOnly); got != 0 {
		t.Errorf("MacroAccuracy(all-OOE, InKBOnly) = %v, want 0", got)
	}
	if acc, ok := DocumentAccuracy(ooeOnly[0], InKBOnly); ok || acc != 0 {
		t.Errorf("DocumentAccuracy(all-OOE, InKBOnly) = (%v, %v), want (0, false)", acc, ok)
	}
	// The same document under WithEE counts the correct NIL prediction.
	if acc, ok := DocumentAccuracy(ooeOnly[0], WithEE); !ok || acc != 1 {
		t.Errorf("DocumentAccuracy(all-OOE, WithEE) = (%v, %v), want (1, true)", acc, ok)
	}
}

func TestEEQualityDegenerateInputs(t *testing.T) {
	if m := EEQuality(nil); m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("EEQuality(nil) = %+v, want zeros", m)
	}
	// No EE on either side: all denominators stay empty.
	docs := [][]Label{{{Gold: 1, Pred: 1}, {Gold: 2, Pred: 3}}}
	if m := EEQuality(docs); m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("EEQuality(no-EE) = %+v, want zeros", m)
	}
	// Predicted EE but no gold EE: precision 0 is averaged, recall has no
	// denominator, F1 is averaged as 0 for that document.
	docs = [][]Label{{{Gold: 1, Pred: kb.NoEntity}}}
	m := EEQuality(docs)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("EEQuality(pred-only-EE) = %+v, want zeros", m)
	}
}

func TestRankedMeasureDegenerateInputs(t *testing.T) {
	if got := MAP(nil); got != 0 {
		t.Errorf("MAP(nil) = %v, want 0", got)
	}
	if p, n := PrecisionAtConfidence(nil, 0.5); p != 0 || n != 0 {
		t.Errorf("PrecisionAtConfidence(nil) = (%v, %d), want (0, 0)", p, n)
	}
	// Threshold above every confidence: count 0, precision 0 (not NaN).
	items := []Ranked{{Confidence: 0.2, Correct: true}}
	if p, n := PrecisionAtConfidence(items, 0.9); p != 0 || n != 0 {
		t.Errorf("PrecisionAtConfidence(none-above) = (%v, %d), want (0, 0)", p, n)
	}
	if got := PRCurve(nil, 10); got != nil {
		t.Errorf("PRCurve(nil) = %v, want nil", got)
	}
	if got := PRCurve(items, 0); got != nil {
		t.Errorf("PRCurve(points=0) = %v, want nil", got)
	}
}

func TestSpearmanDegenerateInputs(t *testing.T) {
	if got := Spearman([]float64{1, 2}, []float64{1}); got != 0 {
		t.Errorf("Spearman(mismatched) = %v, want 0", got)
	}
	if got := Spearman([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("Spearman(single) = %v, want 0", got)
	}
	// A constant vector has zero rank variance: correlation falls back to
	// 0 instead of dividing by zero.
	if got := Spearman([]float64{3, 3, 3}, []float64{1, 2, 3}); got != 0 || math.IsNaN(got) {
		t.Errorf("Spearman(constant) = %v, want 0", got)
	}
	if got := SpearmanFromOrder([]int{0, 1}, []float64{1}); got != 0 {
		t.Errorf("SpearmanFromOrder(mismatched) = %v, want 0", got)
	}
}

func TestSummaryStatsDegenerateInputs(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Stddev([]float64{5}); got != 0 {
		t.Errorf("Stddev(single) = %v, want 0", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
	// Quantile clamps out-of-range q instead of indexing out of bounds.
	if got := Quantile([]float64{1, 2, 3}, 0); got != 1 {
		t.Errorf("Quantile(q=0) = %v, want 1", got)
	}
	if got := Quantile([]float64{1, 2, 3}, 2); got != 3 {
		t.Errorf("Quantile(q=2) = %v, want 3", got)
	}
}
