package main

import (
	"slices"
	"strconv"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median — the run-to-run spread the acceptance check and
// -compare use. Quartiles follow Python's statistics.quantiles(v, n=4)
// (the exclusive method), so the numbers match the driver's.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// latencies is one session's per-operation latency log for one round, in
// nanoseconds.
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

// percentile returns the p-quantile (0..1) of sorted nanosecond samples
// by the nearest-rank rule; 0 for no samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func sortedCopy(l latencies) []int64 {
	out := slices.Clone([]int64(l))
	slices.Sort(out)
	return out
}

// medianNS is the median of nanosecond samples, as float nanoseconds.
func medianNS(l latencies) float64 { return percentile(sortedCopy(l), 0.5) }

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
