// Package obsv is the dependency-free observability core: atomic
// counters, gauges and fixed-bucket latency histograms, grouped into
// a registry that renders Prometheus text exposition and serves the
// ops plane (/metrics, /healthz, /sources, optional pprof). Hot-path
// updates — Counter.Add, Gauge.Add, Histogram.Observe, and updates
// through pre-interned vec handles — are single atomic operations
// with zero allocations (gated by TestObsvHotPathAllocs), so every
// pipeline layer can report continuously without perturbing the
// throughput it measures.
package obsv

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is
// ready to use, but counters are normally obtained from a Registry so
// they appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//bgp:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//bgp:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, occupancy,
// timestamps).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//bgp:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
//
//bgp:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
//
//bgp:hotpath
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
//
//bgp:hotpath
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets, tracking total
// count and sum for mean/rate math and serving p50/p99 estimates by
// linear interpolation inside the matched bucket. Observe is
// allocation-free: one bucket add, one count add, one CAS-loop float
// add for the sum.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, ascending.
	// An implicit +Inf bucket follows the last bound.
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, non-cumulative
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
//
//bgp:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy for exposition and
// quantile estimation. Buckets are read individually, so a snapshot
// taken during concurrent observes may be off by in-flight samples —
// acceptable for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) of everything
// observed so far. See HistSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) float64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 // bucket upper bounds; +Inf bucket is implicit
	Counts []uint64  // per-bucket (non-cumulative), len(Bounds)+1
	Count  uint64
	Sum    float64
}

// Quantile estimates the q-quantile by locating the bucket holding
// the target rank and interpolating linearly between its bounds.
// Samples in the +Inf bucket report the largest finite bound. Returns
// 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the best point estimate is the last finite
			// bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		// Position of the rank inside this bucket.
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucket/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencyBuckets is the default bound set for latency histograms:
// exponential 5µs … ~10s in seconds, sized for in-process publish and
// backfill paths.
func LatencyBuckets() []float64 {
	return []float64{
		0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}
