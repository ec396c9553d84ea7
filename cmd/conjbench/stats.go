package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Quartiles returns the first quartile, the median and the third quartile
// of xs by the "exclusive" method of Python's statistics.quantiles(xs,
// n=4), so spreads computed here agree with a script that post-processes
// the JSON lines. A single sample is its own quartiles; no samples give 0.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Median is the middle quartile of xs.
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// Spread is the distance between the first and third quartiles of xs as a
// share of their median: the run-to-run spread a bound is compared with.
func Spread(xs []float64) float64 {
	q1, m, q3 := Quartiles(xs)
	if m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

// Tail applies the percentile rule: the reported tail of n samples is the
// highest percentile that still has at least 10 samples beyond it, i.e.
// the value with exactly 10 larger samples, at percentile 100·(n-10)/n.
// Below 20 samples that percentile would fall under the median, so there
// is no tail (ok false).
type Tail struct {
	Percentile float64
	Value      float64
	N          int
}

// TailOf returns the percentile-rule tail of xs.
func TailOf(xs []float64) (Tail, bool) {
	n := len(xs)
	if n < 20 {
		return Tail{N: n}, false
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return Tail{Percentile: 100 * float64(n-10) / float64(n), Value: s[n-11], N: n}, true
}

func (t Tail) String() string {
	return fmt.Sprintf("p%.1f %.3f (n=%d)", t.Percentile, t.Value, t.N)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for no samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(0, min(rank, len(s))-1)]
}

// Mean returns the arithmetic mean of xs (0 for no samples).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a half-open [Start, End) stretch of time.
type interval struct{ Start, End time.Duration }

// SelfTime is a span's duration minus the part of it covered by its
// children. Children that overlap one another — siblings run by two
// workers at once — are merged first, so the covered time is counted once;
// children are clipped to the parent.
func SelfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
