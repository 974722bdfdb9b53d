package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a preallocated log-bucketed latency histogram: 64 linear
// sub-buckets per power of two of nanoseconds, so a bucket is at most 1.6 %
// wide — well inside every bound the benchmark sets. Recording never
// allocates; a hist belongs to one goroutine until merged.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Values up to 2^40 ns (≈18 min) are representable; larger ones clamp.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // 2^exp <= ns
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(ns>>(exp-histSubBits)) - histSub
	return (exp-histSubBits+1)*histSub + sub
}

// bucketBounds returns the half-open nanosecond range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	exp := b/histSub + histSubBits - 1
	sub := b % histSub
	width := math.Ldexp(1, exp-histSubBits)
	lo = math.Ldexp(1, exp) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) record(d time.Duration) {
	ns := int64(d)
	h.counts[bucketOf(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantileUS returns the q-quantile in microseconds, interpolated linearly
// inside the bucket it falls in; 0 when the histogram is empty.
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := bucketBounds(b)
			if m := float64(h.max) + 1; hi > m && m > lo {
				hi = m
			}
			return (lo + (hi-lo)*(target-cum)/float64(c)) / 1e3
		}
		cum = next
	}
	return float64(h.max) / 1e3
}

// shareWithin returns the share of recorded values at or below limit.
func (h *hist) shareWithin(limit time.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	lb := bucketOf(int64(limit))
	var in uint64
	for b := 0; b < lb; b++ {
		in += uint64(h.counts[b])
	}
	// The limit's own bucket is split in proportion.
	lo, hi := bucketBounds(lb)
	in += uint64(float64(h.counts[lb]) * (float64(limit) - lo) / (hi - lo))
	return float64(in) / float64(h.n)
}

// quartiles returns the three quartiles of xs by the same "exclusive"
// method as Python's statistics.quantiles(xs, n=4), which is what the
// acceptance check of this benchmark uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// pairedDeltaUS is what a ladder rung adds over the rung below it: the
// median, over the queries of the fixed list, of that query's time on the
// upper rung minus its time on the lower one, in microseconds. Pairing by
// query cancels the spread between cheap and dear queries, which the
// difference of two medians would not.
func pairedDeltaUS(lower, upper []time.Duration) float64 {
	n := min(len(lower), len(upper))
	diffs := make([]time.Duration, n)
	for i := range diffs {
		diffs[i] = upper[i] - lower[i]
	}
	return quantileOfUS(diffs, 0.5)
}

// quantileOfUS is the exact q-quantile of a list of durations, in
// microseconds; the ladder passes are short enough to keep every sample.
func quantileOfUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return float64(s[len(s)-1]) / 1e3
	}
	frac := pos - float64(i)
	return (float64(s[i]) + frac*float64(s[i+1]-s[i])) / 1e3
}
