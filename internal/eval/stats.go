package eval

import (
	"math"
	"sort"
)

// Spearman computes the Spearman rank correlation coefficient between two
// equal-length score vectors, with average ranks for ties — the measure of
// Table 4.2 comparing automatic relatedness rankings with the crowd gold.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra, rb := ranks(a), ranks(b)
	return pearson(ra, rb)
}

// SpearmanFromOrder correlates a gold ordering (indices, best first) with a
// score vector (higher = ranked earlier).
func SpearmanFromOrder(goldOrder []int, scores []float64) float64 {
	n := len(goldOrder)
	if n != len(scores) || n < 2 {
		return 0
	}
	goldScore := make([]float64, n)
	for rank, idx := range goldOrder {
		goldScore[idx] = float64(n - rank) // earlier = higher
	}
	return Spearman(goldScore, scores)
}

// ranks assigns average ranks to values (1 = smallest).
func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(float64(i+j)/2) + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += float64(da * db)
		va += float64(da * da)
		vb += float64(db * db)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Stddev returns the sample standard deviation.
func Stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		s += float64((x - m) * (x - m))
	}
	return math.Sqrt(s / float64(len(v)-1))
}

// Quantile returns the q-quantile (0..1) of the values (nearest rank).
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
