package instrument

import (
	"sync"
	"sync/atomic"
	"time"
)

// SLO tracking: rolling multi-window attainment and error-budget burn rate
// for the admission daemon's service objectives. The paper's QoS guarantees
// are deadline SLOs, so the first-class serving signal is not a raw latency
// histogram but "what fraction of decisions met the objective over the last
// minute / five minutes / hour, and how fast is the error budget burning".
//
// The tracker keeps a ring of per-second slots (one hour deep); every
// decision lands in the slot of its second, and a report merges the last
// 60 / 300 / 3600 slots. Time comes from an injected Clock so tests (and
// model-time drivers) are deterministic; the daemon passes the process
// monotonic clock. Writers are expected to be low-fan-in (the daemon's
// single epoch loop); a plain mutex keeps the tracker race-clean without
// hot-path allocation.
//
// Burn rate is the standard SRE definition: the observed bad fraction over
// the window divided by the objective's error budget (1 − target). Burn 1.0
// means exactly spending the budget; above it the objective will be missed
// if the window's behavior persists.

// sloReasons fixes the rejection-reason vocabulary the tracker buckets by;
// anything outside it (future reasons) lands in the final "other" slot.
var sloReasons = []Reason{
	ReasonDeadline, ReasonCapacity, ReasonKBound, ReasonDisconnected,
	ReasonBundleInfeasible, ReasonNodeCrashed, ReasonRetryExhausted,
}

func reasonIndex(r Reason) int {
	for i, k := range sloReasons {
		if k == r {
			return i
		}
	}
	return len(sloReasons)
}

// sloRingSeconds is the ring depth: the longest window (1h) in seconds.
const sloRingSeconds = 3600

// sloWindows are the reported windows, in seconds, ascending.
var sloWindows = []struct {
	label string
	secs  int64
}{{"1m", 60}, {"5m", 300}, {"1h", 3600}}

// SLOConfig parameterizes a tracker.
type SLOConfig struct {
	// LatencyP95Target and LatencyP99Target are the admission-latency
	// objectives in seconds: 95% (99%) of decisions must answer within
	// them. Zero means 5ms and 25ms.
	LatencyP95Target float64
	LatencyP99Target float64
	// AttainmentTarget is the deadline-attainment objective: the fraction
	// of offers that must be admitted (a rejection means the query's QoS
	// deadline could not be guaranteed). Zero means 0.5.
	AttainmentTarget float64
	// LatencyBounds are the histogram bucket upper bounds (seconds) the
	// per-window percentiles are derived from; nil means the admission
	// daemon's admit-latency buckets.
	LatencyBounds []float64
	// Clock supplies time; nil means the process monotonic clock. Only
	// differences matter, so any monotonic origin works.
	Clock Clock
}

func (c SLOConfig) p95() float64 {
	if c.LatencyP95Target > 0 {
		return c.LatencyP95Target
	}
	return 0.005
}

func (c SLOConfig) p99() float64 {
	if c.LatencyP99Target > 0 {
		return c.LatencyP99Target
	}
	return 0.025
}

func (c SLOConfig) attainment() float64 {
	if c.AttainmentTarget > 0 {
		return c.AttainmentTarget
	}
	return 0.5
}

// DefaultAdmitLatencyBounds are the admission-latency bucket bounds shared
// by the server's histograms and the SLO tracker (50µs–100ms band).
var DefaultAdmitLatencyBounds = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// sloSlot is one second of decisions.
type sloSlot struct {
	epoch    int64 // absolute second this slot currently holds; -1 empty
	offers   int64
	admitted int64
	okP95    int64 // decisions within the p95 latency target
	okP99    int64
	reasons  [8]int64 // rejections by reasonIndex (len(sloReasons)+1 ≤ 8)
	buckets  []int64  // latency histogram counts (len(bounds)+1)
}

// SLOTracker accumulates decisions into per-second ring slots.
type SLOTracker struct {
	cfg    SLOConfig
	bounds []float64
	clock  Clock

	mu    sync.Mutex
	slots [sloRingSeconds]sloSlot
}

// NewSLOTracker builds a tracker over cfg.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	bounds := cfg.LatencyBounds
	if bounds == nil {
		bounds = DefaultAdmitLatencyBounds
	}
	clock := cfg.Clock
	if clock == nil {
		clock = Mono
	}
	t := &SLOTracker{cfg: cfg, bounds: bounds, clock: clock}
	for i := range t.slots {
		t.slots[i].epoch = -1
		t.slots[i].buckets = make([]int64, len(bounds)+1)
	}
	return t
}

// slotFor returns the slot for absolute second sec, resetting it if it still
// holds an older second. Caller holds mu.
func (t *SLOTracker) slotFor(sec int64) *sloSlot {
	s := &t.slots[sec%sloRingSeconds]
	if s.epoch != sec {
		s.epoch = sec
		s.offers, s.admitted, s.okP95, s.okP99 = 0, 0, 0, 0
		s.reasons = [8]int64{}
		for i := range s.buckets {
			s.buckets[i] = 0
		}
	}
	return s
}

// SLOBatch accumulates decisions locally for one tracker and publishes them
// under a single lock acquisition and clock read — the epoch loop's write
// path, same pattern as HistogramBatch. The whole batch lands in the
// second of its Flush instant; an epoch spans a couple of milliseconds, far
// below the one-second slot grain, so the skew against per-decision stamping
// is immaterial. Not safe for concurrent use.
type SLOBatch struct {
	t        *SLOTracker
	p95, p99 float64
	slot     sloSlot
}

// NewBatch returns an empty local accumulation buffer for t.
func (t *SLOTracker) NewBatch() *SLOBatch {
	b := &SLOBatch{t: t, p95: t.cfg.p95(), p99: t.cfg.p99()}
	b.slot.buckets = make([]int64, len(t.bounds)+1)
	return b
}

// Observe buffers one decision locally; Flush publishes the batch.
func (b *SLOBatch) Observe(latencySec float64, admitted bool, reason Reason) {
	s := &b.slot
	s.offers++
	if admitted {
		s.admitted++
	} else {
		s.reasons[reasonIndex(reason)]++
	}
	if latencySec <= b.p95 {
		s.okP95++
	}
	if latencySec <= b.p99 {
		s.okP99++
	}
	i := 0
	for i < len(b.t.bounds) && latencySec > b.t.bounds[i] {
		i++
	}
	s.buckets[i]++
}

// Flush publishes the buffered decisions into the tracker's current-second
// slot and resets the buffer. A no-op when nothing was buffered.
func (b *SLOBatch) Flush() {
	if b.slot.offers == 0 {
		return
	}
	t := b.t
	sec := int64(t.clock() / time.Second)
	t.mu.Lock()
	s := t.slotFor(sec)
	s.offers += b.slot.offers
	s.admitted += b.slot.admitted
	s.okP95 += b.slot.okP95
	s.okP99 += b.slot.okP99
	for i, n := range b.slot.reasons {
		s.reasons[i] += n
	}
	for i, n := range b.slot.buckets {
		s.buckets[i] += n
		b.slot.buckets[i] = 0
	}
	t.mu.Unlock()
	b.slot.offers, b.slot.admitted, b.slot.okP95, b.slot.okP99 = 0, 0, 0, 0
	b.slot.reasons = [8]int64{}
}

// ReasonCount is one rejection reason's count within a window.
type ReasonCount struct {
	Reason Reason  `json:"reason"`
	Count  int64   `json:"count"`
	Rate   float64 `json:"rate"` // fraction of the window's offers
}

// SLOWindow is one rolling window's attainment and burn-rate view.
type SLOWindow struct {
	Window   string `json:"window"`
	Offers   int64  `json:"offers"`
	Admitted int64  `json:"admitted"`
	Rejected int64  `json:"rejected"`

	// LatencyP50/P95/P99 are percentiles (seconds) interpolated from the
	// window's merged latency buckets.
	LatencyP50 float64 `json:"latency_p50_s"`
	LatencyP95 float64 `json:"latency_p95_s"`
	LatencyP99 float64 `json:"latency_p99_s"`

	// LatencyP95OK is the fraction of decisions within the p95 target;
	// BurnRateP95 is (1−LatencyP95OK)/(1−0.95). Same for p99.
	LatencyP95Target float64 `json:"latency_p95_target_s"`
	LatencyP95OK     float64 `json:"latency_p95_ok"`
	BurnRateP95      float64 `json:"burn_rate_p95"`
	LatencyP99Target float64 `json:"latency_p99_target_s"`
	LatencyP99OK     float64 `json:"latency_p99_ok"`
	BurnRateP99      float64 `json:"burn_rate_p99"`

	// Attainment is the admitted fraction (the deadline-attainment SLI);
	// AttainmentBurnRate is (1−Attainment)/(1−AttainmentTarget).
	Attainment         float64 `json:"attainment"`
	AttainmentTarget   float64 `json:"attainment_target"`
	AttainmentBurnRate float64 `json:"attainment_burn_rate"`

	// Rejections attributes the window's rejections by typed reason,
	// in the fixed sloReasons order (zero-count reasons omitted).
	Rejections []ReasonCount `json:"rejections,omitempty"`
}

// SLOReport is the /slo payload: every window plus the exemplar map of the
// end-to-end latency histogram (filled by the caller that owns it).
type SLOReport struct {
	NowSec  float64     `json:"now_sec"`
	Windows []SLOWindow `json:"windows"`
	// Exemplars links latency buckets to concrete decision IDs (see
	// Histogram exemplars); the flight recorder resolves an ID to its full
	// stage timeline.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// Report merges the ring into the configured windows.
func (t *SLOTracker) Report() SLOReport {
	now := t.clock()
	nowSec := int64(now / time.Second)
	rep := SLOReport{NowSec: now.Seconds()}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range sloWindows {
		merged := make([]int64, len(t.bounds)+1)
		win := SLOWindow{
			Window:           w.label,
			LatencyP95Target: t.cfg.p95(),
			LatencyP99Target: t.cfg.p99(),
			AttainmentTarget: t.cfg.attainment(),
		}
		var okP95, okP99 int64
		var reasons [8]int64
		for sec := nowSec - w.secs + 1; sec <= nowSec; sec++ {
			if sec < 0 {
				continue
			}
			s := &t.slots[sec%sloRingSeconds]
			if s.epoch != sec {
				continue // slot empty or recycled past this window
			}
			win.Offers += s.offers
			win.Admitted += s.admitted
			okP95 += s.okP95
			okP99 += s.okP99
			for i, n := range s.reasons {
				reasons[i] += n
			}
			for i, n := range s.buckets {
				merged[i] += n
			}
		}
		win.Rejected = win.Offers - win.Admitted
		if win.Offers > 0 {
			o := float64(win.Offers)
			win.LatencyP50 = bucketQuantile(t.bounds, merged, 0.50)
			win.LatencyP95 = bucketQuantile(t.bounds, merged, 0.95)
			win.LatencyP99 = bucketQuantile(t.bounds, merged, 0.99)
			win.LatencyP95OK = float64(okP95) / o
			win.LatencyP99OK = float64(okP99) / o
			win.Attainment = float64(win.Admitted) / o
			win.BurnRateP95 = burnRate(win.LatencyP95OK, 0.95)
			win.BurnRateP99 = burnRate(win.LatencyP99OK, 0.99)
			win.AttainmentBurnRate = burnRate(win.Attainment, t.cfg.attainment())
			for i, n := range reasons {
				if n == 0 {
					continue
				}
				reason := Reason("other")
				if i < len(sloReasons) {
					reason = sloReasons[i]
				}
				win.Rejections = append(win.Rejections, ReasonCount{
					Reason: reason, Count: n, Rate: float64(n) / o,
				})
			}
		}
		rep.Windows = append(rep.Windows, win)
	}
	return rep
}

// burnRate is badFraction / errorBudget for an objective target in (0,1).
func burnRate(okFraction, target float64) float64 {
	budget := 1 - target
	if budget <= 0 {
		return 0
	}
	bad := 1 - okFraction
	if bad < 0 {
		bad = 0
	}
	return bad / budget
}

// bucketQuantile interpolates the q-quantile from fixed-bucket counts
// (counts[len(bounds)] is the +Inf bucket, reported as the top bound).
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range counts {
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1] // +Inf bucket: clamp to top bound
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if n == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// sloTracker is the process-global tracker; nil means SLO tracking is off
// and the per-decision guard is one atomic pointer load.
var sloTracker atomic.Pointer[SLOTracker]

// SetSLOTracker attaches (or with nil detaches) the process-global tracker.
func SetSLOTracker(t *SLOTracker) { sloTracker.Store(t) }

// CurrentSLOTracker returns the attached tracker (nil when off).
func CurrentSLOTracker() *SLOTracker { return sloTracker.Load() }
