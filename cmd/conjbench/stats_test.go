package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, m, q3  float64
		spread     float64
		spreadSkip bool
	}{
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, q1: 2.75, m: 5.5, q3: 8.25, spread: 1},
		{xs: []float64{1, 2}, q1: 0.75, m: 1.5, q3: 2.25, spread: 1},
		{xs: []float64{3, 1, 2}, q1: 1, m: 2, q3: 3, spread: 1},
		{xs: []float64{5, 1, 4, 2, 3}, q1: 1.5, m: 3, q3: 4.5, spread: 1},
		{xs: []float64{10, 20, 30, 40}, q1: 12.5, m: 25, q3: 37.5, spread: 1},
		{xs: []float64{7}, q1: 7, m: 7, q3: 7, spread: 0},
		{xs: nil, spreadSkip: true},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(m, tc.m) || !near(q3, tc.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
		if got := Median(tc.xs); !near(got, tc.m) {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.m)
		}
		if got := Spread(tc.xs); !tc.spreadSkip && !near(got, tc.spread) {
			t.Errorf("Spread(%v) = %v, want %v", tc.xs, got, tc.spread)
		}
	}
}

func TestTailOfPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: TailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		pct     float64
		value   float64
		display string
	}{
		{n: 5},
		{n: 19},
		{n: 20, ok: true, pct: 50, value: 10, display: "p50.0 10.000 (n=20)"},
		{n: 100, ok: true, pct: 90, value: 90, display: "p90.0 90.000 (n=100)"},
		{n: 188, ok: true, pct: 100 * 178.0 / 188, value: 178, display: "p94.7 178.000 (n=188)"},
		{n: 1000, ok: true, pct: 99, value: 990, display: "p99.0 990.000 (n=1000)"},
	} {
		tail, ok := TailOf(seq(tc.n))
		if ok != tc.ok {
			t.Errorf("n=%d: ok %v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if !near(tail.Percentile, tc.pct) || tail.Value != tc.value || tail.N != tc.n {
			t.Errorf("n=%d: %+v, want p%v = %v", tc.n, tail, tc.pct, tc.value)
		}
		if tail.String() != tc.display {
			t.Errorf("n=%d: printed %q, want %q", tc.n, tail.String(), tc.display)
		}
		// Exactly 10 samples lie beyond the reported value.
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > tail.Value {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", tc.n, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{50, 3}, {90, 5}, {20, 1}, {100, 5}, {1, 1}} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"leaf", iv(0, 100), nil, 100},
		{"disjoint children", iv(0, 100), []interval{iv(10, 20), iv(50, 80)}, 60},
		{"touching children", iv(0, 100), []interval{iv(10, 20), iv(20, 30)}, 80},
		// Two workers ran these siblings at once: the overlap counts once.
		{"overlapping children", iv(0, 100), []interval{iv(10, 60), iv(40, 90)}, 20},
		{"child inside child", iv(0, 100), []interval{iv(10, 90), iv(20, 30)}, 20},
		{"unsorted with overlap", iv(0, 100), []interval{iv(70, 80), iv(10, 50), iv(30, 75)}, 30},
		{"clipped to parent", iv(50, 100), []interval{iv(0, 60), iv(90, 200)}, 30},
		{"outside parent", iv(50, 100), []interval{iv(0, 40)}, 50},
		{"covers parent", iv(0, 100), []interval{iv(0, 50), iv(25, 100)}, 0},
	} {
		if got := SelfTime(tc.parent, tc.children); got != tc.want {
			t.Errorf("%s: SelfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerSelfTimesPerLayer(t *testing.T) {
	tr := newTracer()
	at := func(d int) time.Time { return tr.epoch.Add(time.Duration(d) * time.Millisecond) }
	op := tr.add("triage", 1, 0, 0, at(0), at(100))
	// Two probe compiles on different lanes overlapping for 20 ms.
	tr.add("opt", 1, op, 1, at(10), at(50))
	tr.add("opt", 1, op, 2, at(30), at(60))
	tr.add("reduce.predicate", 1, op, 1, at(70), at(80))
	self := tr.selfTimes()
	want := map[string]time.Duration{"triage": 40 * time.Millisecond, "opt": 70 * time.Millisecond, "reduce": 10 * time.Millisecond}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("%s self time %v, want %v", layer, self[layer], d)
		}
	}
}

func TestStratify(t *testing.T) {
	// 16 items whose size is their class (0-7) times 10 plus a tie-breaker;
	// stream order interleaves them arbitrarily.
	var items, sizes []int
	for i := 0; i < 16; i++ {
		class := (i * 5) % 8
		items = append(items, i)
		sizes = append(sizes, class*10+i%2)
	}
	got := stratify(items, sizes)
	if len(got) != len(items) {
		t.Fatalf("stratify returned %d items, want %d", len(got), len(items))
	}
	// Every sizeStrata consecutive items hold one of each class, dealt
	// smallest class first, and each class keeps its stream order.
	for i, it := range got {
		if class := sizes[it] / 10; class != i%sizeStrata {
			t.Errorf("position %d holds item %d of class %d, want class %d", i, it, class, i%sizeStrata)
		}
		if i >= sizeStrata && got[i-sizeStrata] > it {
			t.Errorf("class %d: item %d dealt after %d, against stream order", i%sizeStrata, got[i-sizeStrata], it)
		}
	}
	// Fewer items than classes are all kept.
	if got := stratify([]string{"b", "a"}, []int{2, 1}); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("stratify of two items = %v, want [a b]", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
