// Package obs is the observability substrate: lock-free latency
// histograms, consistent counter snapshots, a bounded slow-query ring,
// and Prometheus text exposition. It is a leaf package — storage, plan,
// engine and the public twigdb layer all import it; it imports none of
// them — so instruments can be threaded through every layer without
// cycles.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucketing: log-linear with 8 sub-buckets per power of two
// (3 mantissa bits), so relative bucket width is at most 12.5%. Values
// 0..7 get exact unit buckets; a value v >= 8 with top bit at position
// e lands in bucket 8 + (e-3)*8 + the next 3 bits of v. int64 values
// up to 2^63-1 are representable, giving 8 + 61*8 = 496 buckets.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	numBuckets  = histSub + (63-histSubBits)*histSub + histSub
	// histShards is the recorder fan-out. Observe picks a shard from a
	// hash of the value, so concurrent recorders of different latencies
	// touch different cache lines; all updates are atomic adds either
	// way, so merged counts are exact regardless of the shard choice.
	histShards = 8
)

type histShard struct {
	sum    atomic.Int64
	counts [numBuckets]atomic.Int64
}

// Histogram is a lock-free sharded log-bucketed histogram of int64
// samples (typically latencies in nanoseconds, or sizes in units).
// Observe never blocks and never allocates; Snapshot merges the shards
// into one immutable view suitable for quantile estimation and
// Prometheus exposition.
type Histogram struct {
	shards [histShards]histShard
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a non-negative sample to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // position of top bit, >= histSubBits
	shift := uint(e - histSubBits)
	return histSub + (e-histSubBits)*histSub + int((uint64(v)>>shift)&(histSub-1))
}

// BucketBounds returns the inclusive [lo, hi] sample range of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i)
	}
	g := (i - histSub) / histSub
	m := (i - histSub) % histSub
	lo = int64(histSub+m) << uint(g)
	hi = lo + (int64(1) << uint(g)) - 1
	return lo, hi
}

// Observe records one sample. Negative samples are clamped to zero.
// The shard is chosen by a Fibonacci hash of the value so that
// concurrent recorders spread across cache lines; correctness does not
// depend on the distribution.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	s := &h.shards[(uint64(v+1)*0x9E3779B97F4A7C15)>>(64-3)]
	s.counts[bucketOf(v)].Add(1)
	s.sum.Add(v)
}

// HistogramSnapshot is a merged point-in-time view of a Histogram.
type HistogramSnapshot struct {
	Counts [numBuckets]int64
	Count  int64
	Sum    int64
}

// Snapshot merges all shards. Concurrent Observes may or may not be
// included, but every included sample is counted exactly once in both
// Counts and Count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		s.Sum += sh.sum.Load()
		for b := range sh.counts {
			c := sh.counts[b].Load()
			s.Counts[b] += c
			s.Count += c
		}
	}
	return s
}

// Sub returns the delta snapshot s - prev (counts recorded after prev
// was taken). Both snapshots must come from the same histogram.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	d.Count = s.Count - prev.Count
	d.Sum = s.Sum - prev.Sum
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Mean returns the average sample, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the
// bucket containing the target rank and interpolating linearly inside
// it. The estimate is exact for samples below 8 and within the bucket's
// 12.5% relative width above that. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := BucketBounds(i)
			frac := (rank - prev) / float64(c)
			return lo + int64(frac*float64(hi-lo+1))
		}
	}
	// Unreachable unless counts raced; fall back to the max bound seen.
	for i := numBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			_, hi := BucketBounds(i)
			return hi
		}
	}
	return 0
}

// Max returns the upper bound of the highest non-empty bucket.
func (s HistogramSnapshot) Max() int64 {
	for i := numBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			_, hi := BucketBounds(i)
			return hi
		}
	}
	return 0
}

// LazyHistogram is a Histogram allocated on its first sample, for series
// that many databases never record (a database that is only read never
// prepares a write): until then it costs one pointer. The zero value is
// ready to use; Observe and Snapshot are safe for concurrent use.
type LazyHistogram struct{ h atomic.Pointer[Histogram] }

// Observe records one sample, allocating the histogram on the first.
func (l *LazyHistogram) Observe(v int64) {
	h := l.h.Load()
	if h == nil {
		l.h.CompareAndSwap(nil, NewHistogram())
		h = l.h.Load()
	}
	h.Observe(v)
}

// Snapshot merges the samples so far; empty before the first.
func (l *LazyHistogram) Snapshot() HistogramSnapshot {
	if h := l.h.Load(); h != nil {
		return h.Snapshot()
	}
	return HistogramSnapshot{}
}

// Recorded reports whether any sample has arrived.
func (l *LazyHistogram) Recorded() bool { return l.h.Load() != nil }
