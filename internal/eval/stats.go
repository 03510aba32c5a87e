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

// PairedTTest computes the paired two-tailed t-test between two equal-
// length samples (e.g. per-document accuracies of two methods). It returns
// the t statistic and the p-value. Degenerate inputs yield p = 1.
func PairedTTest(a, b []float64) (t, p float64) {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0, 1
	}
	diffs := make([]float64, n)
	var mean float64
	for i := range a {
		diffs[i] = a[i] - b[i]
		mean += diffs[i]
	}
	mean /= float64(n)
	var varSum float64
	for _, d := range diffs {
		varSum += float64((d - mean) * (d - mean))
	}
	if varSum == 0 {
		if mean == 0 {
			return 0, 1
		}
		return math.Inf(sign(mean)), 0
	}
	sd := math.Sqrt(varSum / float64(n-1))
	t = mean / (sd / math.Sqrt(float64(n)))
	df := float64(n - 1)
	p = studentTwoTailed(t, df)
	return t, p
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTwoTailed computes the two-tailed p-value of Student's t
// distribution via the regularized incomplete beta function.
func studentTwoTailed(t, df float64) float64 {
	x := df / (df + float64(t*t))
	return regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + float64(a*math.Log(x)) + float64(b*math.Log(1-x))
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
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
