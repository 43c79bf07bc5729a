package testbed

import (
	"context"
	"fmt"
	"time"
)

// LatencyModel injects wide-area behaviour into loopback connections: a
// one-way propagation delay per region pair plus a serialization delay
// proportional to message size.
type LatencyModel struct {
	// OneWay holds one-way delays keyed by "from|to"; lookups fall back to
	// the reversed key, then to Default.
	OneWay map[string]time.Duration
	// Default is used for unknown region pairs.
	Default time.Duration
	// Intra is used when both endpoints share a region.
	Intra time.Duration
	// BytesPerSec models link bandwidth; zero disables the size term.
	BytesPerSec float64
	// Scale multiplies every injected delay; tests use small scales to
	// stay fast, experiments use 1.0.
	Scale float64
}

// DefaultLatencyModel returns one-way delays derived from public inter-region
// RTT measurements between the paper's four testbed regions (§4.3), halved to
// one-way: SF–NY ≈ 70ms, SF–Toronto ≈ 80ms, SF–Singapore ≈ 180ms,
// NY–Toronto ≈ 20ms, NY–Singapore ≈ 230ms, Toronto–Singapore ≈ 220ms RTT.
// "metro" stands for the WMAN cloudlet tier close to users.
func DefaultLatencyModel() *LatencyModel {
	ms := func(d float64) time.Duration { return time.Duration(d * float64(time.Millisecond)) }
	return &LatencyModel{
		OneWay: map[string]time.Duration{
			"san-francisco|new-york":  ms(35),
			"san-francisco|toronto":   ms(40),
			"san-francisco|singapore": ms(90),
			"new-york|toronto":        ms(10),
			"new-york|singapore":      ms(115),
			"toronto|singapore":       ms(110),
			"metro|san-francisco":     ms(30),
			"metro|new-york":          ms(35),
			"metro|toronto":           ms(38),
			"metro|singapore":         ms(95),
		},
		Default:     ms(60),
		Intra:       ms(2),
		BytesPerSec: 20e6, // ≈160 Mbit/s emulated WAN links
		Scale:       1.0,
	}
}

// Validate reports nil for a usable model.
func (m *LatencyModel) Validate() error {
	if m.Scale < 0 {
		return fmt.Errorf("testbed: negative latency scale %v", m.Scale)
	}
	if m.BytesPerSec < 0 {
		return fmt.Errorf("testbed: negative bandwidth %v", m.BytesPerSec)
	}
	return nil
}

// Delay returns the injected one-way delay for a message of size bytes from
// region a to region b.
func (m *LatencyModel) Delay(a, b string, bytes int) time.Duration {
	var base time.Duration
	switch {
	case a == b:
		base = m.Intra
	default:
		if d, ok := m.OneWay[a+"|"+b]; ok {
			base = d
		} else if d, ok := m.OneWay[b+"|"+a]; ok {
			base = d
		} else {
			base = m.Default
		}
	}
	total := base
	if m.BytesPerSec > 0 {
		total += time.Duration(float64(bytes) / m.BytesPerSec * float64(time.Second))
	}
	return time.Duration(float64(total) * m.Scale)
}

// sleep blocks for the injected delay of a message.
func (m *LatencyModel) sleep(a, b string, bytes int) {
	m.sleepCtx(context.Background(), a, b, bytes)
}

// sleepCtx blocks for the injected delay of a message, returning early when
// ctx is cancelled so abandoned fanout calls don't sit out a WAN delay.
func (m *LatencyModel) sleepCtx(ctx context.Context, a, b string, bytes int) {
	d := m.Delay(a, b, bytes)
	if d <= 0 {
		return
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
