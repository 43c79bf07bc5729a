package instrument

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution: observation counts per upper
// bound plus a running sum and total count, safe for concurrent use. Buckets
// are fixed at creation so concurrent Observe never reallocates, and the
// bucket layout (not wall-clock quantile state) is what lands in snapshots —
// deterministic given deterministic observations.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	// counts[i] counts observations ≤ bounds[i] exclusively of lower
	// buckets; counts[len(bounds)] is the +Inf overflow bucket.
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
	// exemplars[i] holds the ID of the most recent observation that landed
	// in bucket i via a HistogramBatch, +1 (so 0 means "none"). A slow bucket
	// in /slo thereby links to a concrete decision in the flight recorder.
	exemplars []atomic.Int64
}

// DefaultDelayBuckets are the second-scale bounds used by the per-query and
// per-dataset delay histograms: the workload's deadlines sit in the 0.1–10 s
// band, so the buckets straddle it.
var DefaultDelayBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// DefaultIterationBuckets are the round-count bounds used by the dual-ascent
// iteration histogram.
var DefaultIterationBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}

// DefaultStageBuckets are the second-scale bounds used by the per-stage
// admission-latency histograms: individual stages (queue wait aside) sit in
// the 1µs–1ms band, so the buckets straddle 1µs–10ms.
var DefaultStageBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
}

// FindHistogram returns the registered histogram with the given name, or nil
// when no histogram registered under it (endpoint code uses it to reach
// another package's histogram for exemplar rendering without an export).
func FindHistogram(name string) *Histogram {
	registry.Lock()
	defer registry.Unlock()
	return registry.histograms[name]
}

// NewHistogram creates (or returns the existing) registered histogram with
// the given name and upper bounds. Bounds are sorted and deduplicated; when
// none are given, DefaultDelayBuckets apply. As with counters, the first
// registration of a name wins.
func NewHistogram(name string, bounds ...float64) *Histogram {
	registry.Lock()
	defer registry.Unlock()
	if registry.histograms == nil {
		registry.histograms = make(map[string]*Histogram)
	}
	if h, ok := registry.histograms[name]; ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = DefaultDelayBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	h := &Histogram{
		name:      name,
		bounds:    uniq,
		counts:    make([]atomic.Int64, len(uniq)+1),
		exemplars: make([]atomic.Int64, len(uniq)+1),
	}
	registry.histograms[name] = h
	return h
}

// bucketIndex returns the bucket index for v (len(bounds) for +Inf).
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value when collection is enabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// HistogramBatch accumulates observations for one histogram locally — no
// atomics — and publishes them in a single Flush, each bucket's newest
// exemplar with it. It is the hot-loop path for single-goroutine pipelines:
// the epoch pricer observes six stage histograms per decision, and
// per-observation atomic read-modify-writes would otherwise dominate the
// pipeline on small machines. A batch is not safe for concurrent use, but
// Flush may run concurrently with other observers of the same histogram.
type HistogramBatch struct {
	h         *Histogram
	counts    []int64
	exemplars []int64 // id+1 per bucket; 0 = none
	sum       float64
	n         int64
}

// NewBatch returns an empty local accumulation buffer for h.
func (h *Histogram) NewBatch() *HistogramBatch {
	return &HistogramBatch{
		h:         h,
		counts:    make([]int64, len(h.counts)),
		exemplars: make([]int64, len(h.counts)),
	}
}

// Observe records v with exemplar id into the local buffer when collection
// is enabled. id must be ≥ 0; the newest id per bucket wins.
func (b *HistogramBatch) Observe(v float64, id int64) {
	if !enabled.Load() {
		return
	}
	i := b.h.bucketIndex(v)
	b.counts[i]++
	b.exemplars[i] = id + 1
	b.sum += v
	b.n++
}

// Flush publishes the buffered observations to the histogram and resets the
// buffer. A no-op when nothing was buffered.
func (b *HistogramBatch) Flush() {
	if b.n == 0 {
		return
	}
	for i, c := range b.counts {
		if c == 0 {
			continue
		}
		b.h.counts[i].Add(c)
		b.counts[i] = 0
		if e := b.exemplars[i]; e != 0 {
			b.h.exemplars[i].Store(e)
			b.exemplars[i] = 0
		}
	}
	for {
		old := b.h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + b.sum)
		if b.h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	b.h.count.Add(b.n)
	b.sum, b.n = 0, 0
}

// BucketExemplar links one histogram bucket (by upper bound; +Inf is
// math.Inf(1)) to the ID of the latest observation a HistogramBatch
// recorded into it.
type BucketExemplar struct {
	LE float64 `json:"le"`
	ID int64   `json:"exemplar_id"`
}

// Exemplars returns the buckets that have an exemplar, ascending by bound.
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := range h.exemplars {
		raw := h.exemplars[i].Load()
		if raw == 0 {
			continue
		}
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out = append(out, BucketExemplar{LE: le, ID: raw - 1})
	}
	return out
}

// Quantile interpolates the q-quantile (0 < q ≤ 1) from the bucket counts,
// assuming a uniform distribution within each bucket; observations in the
// +Inf bucket are clamped to the top bound. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bucketQuantile(h.bounds, counts, q)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Gauge is a float64 value that moves up and down — the "current level"
// companion to the monotone Counter (live capacity utilization, queue
// depths). Safe for concurrent use.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// NewGauge creates (or returns the existing) registered gauge.
func NewGauge(name string) *Gauge {
	registry.Lock()
	defer registry.Unlock()
	if registry.gauges == nil {
		registry.gauges = make(map[string]*Gauge)
	}
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	registry.gauges[name] = g
	return g
}

// Set stores v when collection is enabled.
func (g *Gauge) Set(v float64) {
	if enabled.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }
