package main

import (
	"fmt"
	"math"
	"sort"

	"stochsyn/internal/stats"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
// It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the middle sample (the mean of the two middle samples for
// an even count), NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a _tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples a tail percentile must leave
// above itself to be reported.
const minBeyond = 10

// tail is a tail percentile together with its support.
type tail struct {
	P      float64 // the percentile reported, e.g. 95; 0 when withheld
	Value  float64 // NaN when withheld
	Beyond int     // samples strictly above the percentile's rank
	N      int     // samples in total
}

// tailOf returns the highest percentile of tailLadder that still has at
// least minBeyond samples beyond its rank. With fewer than
// 2*minBeyond samples no rung qualifies and the tail is withheld.
func tailOf(xs []float64) tail {
	n := len(xs)
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		r := nearestRank(n, p)
		if n > 0 && n-r >= minBeyond {
			return tail{P: p, Value: s[r-1], Beyond: n - r, N: n}
		}
	}
	return tail{Value: math.NaN(), N: n}
}

// String renders the tail with the percentile and its sample count.
func (t tail) String() string {
	if t.P == 0 {
		return fmt.Sprintf("withheld (%d samples, need %d)", t.N, 2*minBeyond)
	}
	return fmt.Sprintf("%.4g (p%g, %d of %d beyond)", t.Value, t.P, t.Beyond, t.N)
}

// pmean is the penalized mean of Section 7.2 of the paper over a set
// of runs: the mean of the solved runs' values plus (1/ps - 1) times
// the cap c, where ps is the share of runs solved. solved[i] marks
// whether vals[i] is a time to solution. It is +Inf when nothing was
// solved and NaN for an empty set.
func pmean(vals []float64, solved []bool, c float64) float64 {
	var succ []float64
	for i, v := range vals {
		if solved[i] {
			succ = append(succ, v)
		}
	}
	return stats.PenalizedMean(succ, len(vals), c)
}

// ratio is a share printed together with its base, so a reader can
// tell 1/2 from 500/1000.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, NaN when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return math.NaN()
	}
	return r.Num / r.Den
}

// String renders "value (num/den)".
func (r ratio) String() string {
	if r.Den == 0 {
		return "n/a (0/0)"
	}
	return fmt.Sprintf("%.4f (%.0f/%.0f)", r.Value(), r.Num, r.Den)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is the arithmetic mean, NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean of positive xs, NaN for an empty
// sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
