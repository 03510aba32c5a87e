package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the figure is a property of a handful of
// requests, not of the distribution. windowedPercentile enforces it.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of an
// ascending slice and how many samples lie strictly beyond its rank.
func percentile(asc []float64, p float64) (v float64, beyond int) {
	if len(asc) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	rank = min(max(rank, 1), len(asc))
	return asc[rank-1], len(asc) - rank
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how the
// acceptance check sizes run-to-run spread. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance of xs as a share of the median.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// windowSamples is the least number of samples a latency window holds:
// the fewest for which a 95th percentile has minBeyond samples beyond it.
const windowSamples = 20 * minBeyond

// windowedPercentile splits samples, taken in completion order, into
// consecutive windows of at least windowSamples each, takes the p-th
// percentile of every window and returns the median of those. One burst —
// a collector cycle, a scheduling hiccup — owns the plain percentile of a
// short phase; it moves one window here. It refuses fewer than
// windowSamples samples.
func windowedPercentile(inOrder []float64, p float64) (v float64, windows int, err error) {
	windows = len(inOrder) / windowSamples
	if windows == 0 {
		return 0, 0, fmt.Errorf("p%g needs %d samples, have %d: measure longer", p, windowSamples, len(inOrder))
	}
	per := len(inOrder) / windows
	tails := make([]float64, windows)
	for w := range tails {
		hi := (w + 1) * per
		if w == windows-1 {
			hi = len(inOrder)
		}
		tails[w], _ = percentile(sorted(inOrder[w*per:hi]), p)
	}
	return median(tails), windows, nil
}

// throughputWindows is how many equal windows a closed-loop phase is cut
// into for its throughput figure.
const throughputWindows = 16

// windowedRate returns the median, over throughputWindows equal windows of
// [0, seconds), of units completed per second: doneAt[i] is when a request
// completed, seconds into the phase, and units[i] what it completed. A
// phase's first windows run slow while the processor and the server's
// scheduler come out of the idle state the low-rate phases left them in;
// the median is the steady rate. seconds is the phase's planned length, or
// less when its requests ran out first; completions at or after it
// (requests in flight when the clock stopped the phase) fall outside every
// window.
func windowedRate(doneAt []float64, units []int, seconds float64) float64 {
	width := seconds / throughputWindows
	per := make([]float64, throughputWindows)
	for i, t := range doneAt {
		if w := int(t / width); w >= 0 && w < throughputWindows {
			per[w] += float64(units[i]) / width
		}
	}
	return median(per)
}
