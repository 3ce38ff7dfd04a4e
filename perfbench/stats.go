package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100), or 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: p99 needs 1000 samples, p90 100.
const minBeyond = 10

// tailAllowed reports whether n samples support the p-th percentile,
// that is, whether at least minBeyond samples lie beyond it.
func tailAllowed(p float64, n int) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// sortedLinesDigest is the order-insensitive SHA-256 of a textual dump:
// the hash of its non-empty lines in sorted order, so two dumps that
// list the same facts in a different order digest alike.
func sortedLinesDigest(dump string) string {
	lines := strings.Split(dump, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if l != "" {
			kept = append(kept, l)
		}
	}
	sort.Strings(kept)
	h := sha256.New()
	for _, l := range kept {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
