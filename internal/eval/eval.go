// Package eval implements the evaluation measures of the dissertation:
// micro/macro-averaged accuracy (Sec. 3.6.1), interpolated MAP and
// precision@confidence over confidence-ranked mentions (Sec. 5.7.1), the
// emerging-entity precision/recall/F1 (Sec. 5.7.2) and Spearman rank
// correlation for the relatedness study (Sec. 4.5.2).
package eval

import (
	"math"
	"sort"

	"aida/internal/kb"
)

// Label pairs a gold annotation with a prediction for one mention.
// kb.NoEntity denotes an out-of-KB (emerging) entity on either side.
type Label struct {
	Gold kb.EntityID
	Pred kb.EntityID
}

// Correct reports whether the prediction matches the gold annotation.
func (l Label) Correct() bool { return l.Gold == l.Pred }

// Mode selects which mentions participate in accuracy computation.
type Mode int

const (
	// InKBOnly ignores mentions whose gold entity is out-of-KB — the
	// Chapter 3 evaluation regime ("we consider only mention-entity pairs
	// where the ground-truth gives a known entity").
	InKBOnly Mode = iota
	// WithEE includes out-of-KB mentions; predicting kb.NoEntity for them
	// is correct — the Chapter 5 regime.
	WithEE
)

func (m Mode) keep(l Label) bool { return m == WithEE || l.Gold != kb.NoEntity }

// MicroAccuracy is the fraction of correctly disambiguated mentions over
// the whole collection.
func MicroAccuracy(docs [][]Label, mode Mode) float64 {
	correct, total := 0, 0
	for _, doc := range docs {
		for _, l := range doc {
			if !mode.keep(l) {
				continue
			}
			total++
			if l.Correct() {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// DocumentAccuracy is the fraction of correct mentions in one document.
func DocumentAccuracy(doc []Label, mode Mode) (float64, bool) {
	correct, total := 0, 0
	for _, l := range doc {
		if !mode.keep(l) {
			continue
		}
		total++
		if l.Correct() {
			correct++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(correct) / float64(total), true
}

// MacroAccuracy is the document-averaged accuracy.
func MacroAccuracy(docs [][]Label, mode Mode) float64 {
	var sum float64
	var n int
	for _, doc := range docs {
		if acc, ok := DocumentAccuracy(doc, mode); ok {
			sum += acc
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// EEMetrics holds the per-document-averaged emerging-entity measures of
// Sec. 5.7.2.
type EEMetrics struct {
	Precision float64
	Recall    float64
	F1        float64
}

// EEQuality computes EE precision, recall and F1, each averaged over
// documents that have the respective denominator (predicted EEs for
// precision, gold EEs for recall; F1 is averaged over documents with
// either).
func EEQuality(docs [][]Label) EEMetrics {
	var pSum, rSum, fSum float64
	var pN, rN, fN int
	for _, doc := range docs {
		var goldEE, predEE, both int
		for _, l := range doc {
			g := l.Gold == kb.NoEntity
			p := l.Pred == kb.NoEntity
			if g {
				goldEE++
			}
			if p {
				predEE++
			}
			if g && p {
				both++
			}
		}
		var prec, rec float64
		if predEE > 0 {
			prec = float64(both) / float64(predEE)
			pSum += prec
			pN++
		}
		if goldEE > 0 {
			rec = float64(both) / float64(goldEE)
			rSum += rec
			rN++
		}
		if goldEE > 0 || predEE > 0 {
			if prec+rec > 0 {
				fSum += 2 * prec * rec / (prec + rec)
			}
			fN++
		}
	}
	var m EEMetrics
	if pN > 0 {
		m.Precision = pSum / float64(pN)
	}
	if rN > 0 {
		m.Recall = rSum / float64(rN)
	}
	if fN > 0 {
		m.F1 = fSum / float64(fN)
	}
	return m
}

// Ranked is one confidence-ranked prediction.
type Ranked struct {
	Confidence float64
	Correct    bool
}

// MAP computes the interpolated mean average precision of Eq. 5.1: the mean
// of interpolated precision at recall levels i/m over the confidence-
// descending ranking (equivalently, the area under the precision-recall
// curve).
func MAP(items []Ranked) float64 {
	if len(items) == 0 {
		return 0
	}
	sorted := append([]Ranked(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Confidence > sorted[j].Confidence })
	m := len(sorted)
	// precision at each prefix
	prec := make([]float64, m)
	correct := 0
	for i, it := range sorted {
		if it.Correct {
			correct++
		}
		prec[i] = float64(correct) / float64(i+1)
	}
	// Interpolate: precision at recall level i/m is the max precision at
	// any prefix ≥ that recall.
	interp := make([]float64, m)
	maxSoFar := 0.0
	for i := m - 1; i >= 0; i-- {
		if prec[i] > maxSoFar {
			maxSoFar = prec[i]
		}
		interp[i] = maxSoFar
	}
	var sum float64
	for _, p := range interp {
		sum += p
	}
	return sum / float64(m)
}

// PrecisionAtConfidence returns the precision among predictions with
// confidence ≥ threshold, and how many there are (the Prec@conf /
// #Men@conf rows of Table 5.1).
func PrecisionAtConfidence(items []Ranked, threshold float64) (precision float64, count int) {
	correct := 0
	for _, it := range items {
		if it.Confidence >= threshold {
			count++
			if it.Correct {
				correct++
			}
		}
	}
	if count == 0 {
		return 0, 0
	}
	return float64(correct) / float64(count), count
}

// PRPoint is one precision-recall curve point.
type PRPoint struct {
	Recall    float64
	Precision float64
}

// PRCurve computes the precision-recall curve over the confidence-ranked
// predictions (Fig. 5.3): recall x means the x-fraction of mentions with
// the highest confidence.
func PRCurve(items []Ranked, points int) []PRPoint {
	if len(items) == 0 || points <= 0 {
		return nil
	}
	sorted := append([]Ranked(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Confidence > sorted[j].Confidence })
	out := make([]PRPoint, 0, points)
	for p := 1; p <= points; p++ {
		recall := float64(p) / float64(points)
		n := int(math.Round(recall * float64(len(sorted))))
		if n == 0 {
			n = 1
		}
		correct := 0
		for i := 0; i < n; i++ {
			if sorted[i].Correct {
				correct++
			}
		}
		out = append(out, PRPoint{Recall: recall, Precision: float64(correct) / float64(n)})
	}
	return out
}
