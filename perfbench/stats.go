package main

import (
	"sort"
	"time"
)

// sink receives results of timed calls so the compiler keeps them.
var sink int

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf runs f reps times and returns the median wall time in seconds.
func medianOf(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		f()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

// nsPerOp times batches of n calls of f(i) and returns the median batch
// time per call in nanoseconds.
func nsPerOp(batches, n int, f func(i int)) float64 {
	ts := make([]float64, batches)
	for b := range ts {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		ts[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(ts)
}
