package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank percentile (ceil(n·p/100)) of xs,
// which it sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(float64(len(xs)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the middle value of xs (mean of the two middle values for
// an even count); it sorts xs in place and returns NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mix is splitmix64: a stateless hash from (seed, index) to a
// well-spread 64-bit value, so op i of a workload is a pure function
// of the seed and needs no shared generator state between connections.
func mix(seed uint64, i uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is a sequential generator over mix, for the few places that draw
// a stream (store contents, refresh scripts).
type rng struct {
	seed uint64
	i    uint64
}

func (r *rng) intn(n int) int {
	r.i++
	return int(mix(r.seed, r.i) % uint64(n))
}
