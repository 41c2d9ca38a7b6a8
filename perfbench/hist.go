package main

import (
	"math/bits"
	"time"
)

// histogram records durations in fixed memory at sub-microsecond
// resolution: values under 1024 ns land in 1 ns buckets, larger ones in
// log-linear buckets with 1024 sub-buckets per power of two (0.1% relative
// width). internal/metrics.Histogram floors to whole microseconds, a 6%
// step at a 15 µs median, and a growing sample slice would show up in the
// live-heap metric, so neither is used for timing.
type histogram struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	subBits     = 10
	subBuckets  = 1 << subBits
	maxExponent = 40 - subBits // top bucket covers ~18 minutes
	histBuckets = subBuckets * (maxExponent + 2)
)

func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	if e > maxExponent {
		return histBuckets - 1
	}
	return subBuckets*(e+1) + int(v>>uint(e)) - subBuckets
}

// bucketMid returns the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	e := i/subBuckets - 1
	lo := uint64(subBuckets+i%subBuckets) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *histogram) record(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in microseconds (0 when empty).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return bucketMid(i) / 1e3
		}
	}
	return bucketMid(histBuckets-1) / 1e3
}
