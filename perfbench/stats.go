package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is one outlier, not a
// percentile.
const minBeyond = 10

// Sample summarizes one measured quantity: the count, the median with
// its quartiles, and the tail percentile the count supports.
type Sample struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	P95    float64 `json:"p95"`
	// TailPct is the percentile Tail reports (see tailPercentile).
	TailPct int     `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	Max     float64 `json:"max"`
}

// summarize sorts a copy of xs and reads off the Sample. +Inf values
// (requests that never succeeded) sort last; a percentile landing on
// one reports +Inf.
func summarize(xs []float64) Sample {
	if len(xs) == 0 {
		return Sample{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return Sample{
		N:       len(s),
		Median:  quantile(s, 0.50),
		Q1:      quantile(s, 0.25),
		Q3:      quantile(s, 0.75),
		P95:     quantile(s, 0.95),
		TailPct: p,
		Tail:    quantile(s, float64(p)/100),
		Max:     s[len(s)-1],
	}
}

// quantile is the nearest-rank q-quantile of sorted s: the smallest
// value with at least q·n samples at or below it.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentile is the highest whole percentile, capped at 99, whose
// nearest-rank value has at least minBeyond samples above its rank. With
// fewer than 2·minBeyond samples no percentile above the median
// qualifies and the median (50) is returned.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 50
}

// finite maps +Inf (a request that failed or was refused) to ceiling, so
// a summary stays encodable as JSON while still reading as "over any
// limit".
func finite(v, ceiling float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return ceiling
	}
	return v
}

// trimmedMean is the mean of xs without the lowest and highest
// floor(cut·n) values each; NaN when empty.
func trimmedMean(xs []float64, cut float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(cut * float64(len(s)))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), the rule the acceptance check reads spreads
// with, so compare reports what that check sees.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive", with 4 groups.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
