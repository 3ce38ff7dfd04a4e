package main

import (
	"math"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 999, false},
		{99, 1000, true},
		{90, 99, false},
		{90, 100, true},
		{50, 19, false},
		{50, 20, true},
		{99.9, 10000, true},
	} {
		if got := tailAllowed(c.p, c.n); got != c.want {
			t.Errorf("tailAllowed(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty inputs must give 0")
	}
}

func TestDigestIgnoresLineOrder(t *testing.T) {
	a := sortedLinesDigest("var $x in {0, 1}.\nr(1, 2).\nr(2, 3)[$x = 1].\n")
	b := sortedLinesDigest("r(2, 3)[$x = 1].\n\nvar $x in {0, 1}.\nr(1, 2).")
	if a != b {
		t.Errorf("reordered dump digests differ: %s vs %s", a, b)
	}
	if c := sortedLinesDigest("var $x in {0, 1}.\nr(1, 2).\nr(2, 3)[$x = 0].\n"); c == a {
		t.Error("a changed condition must change the digest")
	}
	if d := sortedLinesDigest("r(1, 2).\nr(1, 2).\n"); d == sortedLinesDigest("r(1, 2).\n") {
		t.Error("a duplicated line must change the digest")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Name: "rib.generate", Parent: -1, Start: 0, End: 2},
		{Name: evalSpan + "q1", Parent: -1, Start: 2, End: 5},
		{Name: "inner", Parent: 1, Start: 3, End: 4},
		{Name: evalSpan + "q2", Parent: -1, Start: 5, End: 9.5},
	}
	self := selfSeconds(spans)
	for i, want := range []float64{2, 2, 1, 4.5} {
		if math.Abs(self[i]-want) > 1e-9 {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want)
		}
	}
	// The set-up span lies outside the query calls and does not count.
	if got := coverage(spans, 8); math.Abs(got-7.5/8) > 1e-9 {
		t.Errorf("coverage = %v, want %v", got, 7.5/8)
	}
}
