// Package instrument provides the lightweight runtime counters and timers
// behind the repository's performance observability: Dijkstra invocations and
// distance-cache hit rates (internal/graph), dual-ascent rounds, priced
// bundles and per-phase admissions (internal/core), and instance-build reuse
// in the figure drivers (internal/experiments). It is not part of the paper's
// model; it exists so that every hot path named in ARCHITECTURE.md has a
// number attached to it, read by the -stats flag of the cmd/ binaries and by
// the per-layer metrics of the benchmark in bench/.
//
// Collection is globally gated: when disabled (the default) every Add/Inc/
// Observe is a single atomic load and a branch — zero allocations, no locks —
// so instrumented hot paths cost nothing in production runs. Enable it with
// Enable() (the cmd/ binaries expose this as -stats).
//
// Counters are process-global and registered once at package init of their
// owning package. Snapshot and Reset make them usable from tests and from the
// CLI summary printers without plumbing a registry through every call site.
package instrument

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates all collection. Counters still exist when disabled; they just
// refuse updates so the hot paths stay free.
var enabled atomic.Bool

// Enable turns collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns collection off process-wide.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on.
func Enabled() bool { return enabled.Load() }

// registry holds every metric ever created, keyed by name.
var registry struct {
	sync.Mutex
	counters   map[string]*Counter
	timers     map[string]*Timer
	histograms map[string]*Histogram
	gauges     map[string]*Gauge
}

// Counter is a monotonically-increasing event count, safe for concurrent
// use. The zero Counter is unregistered but usable.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter creates (or returns the existing) registered counter with the
// given name. Names are dotted paths, e.g. "graph.dijkstra_calls".
func NewCounter(name string) *Counter {
	registry.Lock()
	defer registry.Unlock()
	if registry.counters == nil {
		registry.counters = make(map[string]*Counter)
	}
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry.counters[name] = c
	return c
}

// Inc adds 1 when collection is enabled.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n when collection is enabled.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name ("" for unregistered zero Counters).
func (c *Counter) Name() string { return c.name }

// Timer accumulates durations (total nanoseconds and observation count),
// safe for concurrent use.
type Timer struct {
	name  string
	ns    atomic.Int64
	count atomic.Int64
}

// NewTimer creates (or returns the existing) registered timer.
func NewTimer(name string) *Timer {
	registry.Lock()
	defer registry.Unlock()
	if registry.timers == nil {
		registry.timers = make(map[string]*Timer)
	}
	if t, ok := registry.timers[name]; ok {
		return t
	}
	t := &Timer{name: name}
	registry.timers[name] = t
	return t
}

// Observe records one duration when collection is enabled.
func (t *Timer) Observe(d time.Duration) {
	if enabled.Load() {
		t.ns.Add(int64(d))
		t.count.Add(1)
	}
}

// TotalNs returns the accumulated nanoseconds.
func (t *Timer) TotalNs() int64 { return t.ns.Load() }

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Snapshot returns the current value of every registered counter plus, per
// timer, "<name>.ns", "<name>.count", and "<name>.mean_ns" entries (count and
// mean together expose low-N noise that a bare total hides in sweep
// comparisons); per histogram, "<name>.count", cumulative "<name>.le_…"
// bucket entries, and "<name>.p50_micro"/".p95_micro"/".p99_micro"
// (interpolated percentiles scaled by 1e6 and rounded, so second-valued
// latency histograms read in microseconds — the same quantiles /metrics
// serves, keeping -stats and the scrape in agreement); per gauge,
// "<name>.milli" (the value scaled by 1000 and rounded, since the snapshot
// is integer-valued — the Prometheus endpoint serves full precision).
func Snapshot() map[string]int64 {
	registry.Lock()
	defer registry.Unlock()
	out := make(map[string]int64, len(registry.counters)+3*len(registry.timers))
	for name, c := range registry.counters {
		out[name] = c.Value()
	}
	for name, t := range registry.timers {
		total, count := t.TotalNs(), t.Count()
		out[name+".ns"] = total
		out[name+".count"] = count
		if count > 0 {
			out[name+".mean_ns"] = total / count
		} else {
			out[name+".mean_ns"] = 0
		}
	}
	for name, h := range registry.histograms {
		out[name+".count"] = h.Count()
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			out[fmt.Sprintf("%s.le_%g", name, b)] = cum
		}
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{".p50_micro", 0.50}, {".p95_micro", 0.95}, {".p99_micro", 0.99}} {
			out[name+q.suffix] = int64(math.Round(h.Quantile(q.q) * 1e6))
		}
	}
	for name, g := range registry.gauges {
		out[name+".milli"] = int64(math.Round(g.Value() * 1000))
	}
	return out
}

// Reset zeroes every registered counter, timer, histogram, and gauge.
func Reset() {
	registry.Lock()
	defer registry.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, t := range registry.timers {
		t.ns.Store(0)
		t.count.Store(0)
	}
	for _, h := range registry.histograms {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		for i := range h.exemplars {
			h.exemplars[i].Store(0)
		}
		h.sumBits.Store(0)
		h.count.Store(0)
	}
	for _, g := range registry.gauges {
		g.bits.Store(0)
	}
}

// FormatSnapshot renders a snapshot sorted by name, one "name value" line
// per metric — the output of the cmd/ binaries' -stats flag.
func FormatSnapshot(snap map[string]int64) string {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		b = append(b, fmt.Sprintf("%-40s %d\n", n, snap[n])...)
	}
	return string(b)
}
