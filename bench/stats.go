package main

import (
	"sort"
	"time"
)

// ms converts durations to sorted milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the closest ranks of sorted
// (0 on an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method), so an IQR printed here matches one computed from the same
// values with Python. With a single value, all three are it.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	return quantile(d, 0.5)
}
