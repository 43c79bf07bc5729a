// Package retry implements capped exponential backoff with deterministic
// jitter and a deadline-derived budget. It exists so federation's WAL
// shipping and the chaos experiment driver retry with the same arithmetic:
// the sequence of delays is a pure function of the Policy (including its
// Seed), which keeps real-socket behaviour and model-time simulations in
// agreement and makes backoff schedules assertable in tests without
// sleeping.
//
// Budget semantics: a caller that must answer within the query's remaining
// DeadlineSec converts it to a time.Duration budget. Do gives up — returning
// an error wrapping ErrBudgetExhausted — as soon as the next backoff delay
// no longer fits in the budget, rather than sleeping into a deadline it can
// no longer meet. Engines map that terminal error to the typed trace reason
// instrument.ReasonRetryExhausted.
package retry

import (
	"errors"
	"fmt"
	"time"
)

// ErrBudgetExhausted is wrapped by Do when the deadline budget ran out (or
// could no longer fit the next backoff delay) before any attempt succeeded.
// Callers translate it to instrument.ReasonRetryExhausted.
var ErrBudgetExhausted = errors.New("retry budget exhausted")

// Policy is a capped exponential backoff schedule with deterministic jitter.
// The zero value is usable: defaults are 50ms base, 2s cap, 2x growth, ±25%
// jitter, unlimited attempts (budget-bound only).
type Policy struct {
	// Base is the delay before the first retry (attempt 0's backoff).
	Base time.Duration
	// Cap bounds any single delay after growth, before jitter.
	Cap time.Duration
	// Multiplier is the per-attempt growth factor (>= 1).
	Multiplier float64
	// JitterFrac scales each delay by a deterministic factor in
	// [1-JitterFrac, 1+JitterFrac). 0 disables jitter.
	JitterFrac float64
	// MaxAttempts caps the total number of attempts (first try included);
	// 0 means unlimited — the budget is the only stop.
	MaxAttempts int
	// Seed drives the jitter hash; same Seed, same schedule.
	Seed int64
	// Notify, when non-nil, is called after every failed attempt with the
	// 0-based attempt index and the attempt's error — before Run decides
	// whether to back off or give up. Observability only: WAL shippers hook
	// an instrument counter here so retries are visible on /metrics instead
	// of silent. Notify must not block; it runs inline in the retry loop.
	Notify func(attempt int, err error)
}

// Defaults for the zero Policy. Exported so callers and docs quote one
// source of truth for the retry budget math.
const (
	DefaultBase       = 50 * time.Millisecond
	DefaultCap        = 2 * time.Second
	DefaultMultiplier = 2.0
	DefaultJitterFrac = 0.25
)

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = DefaultBase
	}
	if p.Cap <= 0 {
		p.Cap = DefaultCap
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.JitterFrac < 0 || p.JitterFrac >= 1 {
		p.JitterFrac = DefaultJitterFrac
	}
	return p
}

// mix is the splitmix64 finalizer — the repo-standard seeded hash (see
// experiments.BuildTestbedTopology) — giving jitter without math/rand state.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay returns the backoff delay slept after attempt n fails (n is
// 0-based). Deterministic: a pure function of the Policy and n.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.Cap) {
			d = float64(p.Cap)
			break
		}
	}
	if d > float64(p.Cap) {
		d = float64(p.Cap)
	}
	if p.JitterFrac > 0 {
		h := mix(uint64(p.Seed) ^ mix(uint64(attempt)))
		u := float64(h>>11) / float64(uint64(1)<<53) // [0,1)
		d *= 1 + p.JitterFrac*(2*u-1)
	}
	// Floor at 1ns: a sub-nanosecond product (tiny Base under downward
	// jitter) would truncate to 0, and a zero delay turns every budgeted
	// retry loop into a busy spin — Schedule would grow it forever.
	if d < 1 {
		return 1
	}
	return time.Duration(d)
}

// Schedule returns the delays Do would sleep under the given budget assuming
// instant attempts: delays are appended while they still fit in what remains
// of the budget (and MaxAttempts allows another try). Tests and model-time
// drivers use it to reason about retry behaviour without a clock.
//
// A budget that cannot fit even the first backoff delay — including a zero
// or negative budget — yields an empty schedule: the caller gets exactly one
// attempt (the initial try is never gated on backoff) and then gives up, it
// does not busy-retry with zero delays. Every delay is at least 1ns (see
// Delay), so the loop always consumes budget and terminates.
func (p Policy) Schedule(budget time.Duration) []time.Duration {
	p = p.withDefaults()
	var out []time.Duration
	remaining := budget
	for attempt := 0; ; attempt++ {
		if p.MaxAttempts > 0 && attempt+1 >= p.MaxAttempts {
			return out
		}
		d := p.Delay(attempt)
		if d >= remaining {
			return out
		}
		out = append(out, d)
		remaining -= d
	}
}

// Sleeper abstracts time.Sleep so tests substitute a recording fake and
// model-time drivers advance a virtual clock.
type Sleeper func(time.Duration)

// Runner executes attempts under a Policy with an injectable clock. The zero
// value (beyond Policy) uses real time.
type Runner struct {
	Policy Policy
	// Now defaults to time.Now.
	Now func() time.Time
	// Sleep defaults to time.Sleep.
	Sleep Sleeper
}

// Run calls fn until it succeeds, the attempt cap is hit, or the budget can
// no longer fit the next backoff delay. fn receives the 0-based attempt
// index and the budget remaining at the start of that attempt — callers
// derive per-attempt I/O deadlines from it. The returned error wraps both
// the last attempt error and, when the budget was the stopper,
// ErrBudgetExhausted.
func (r Runner) Run(budget time.Duration, fn func(attempt int, remaining time.Duration) error) error {
	p := r.Policy.withDefaults()
	now := r.Now
	if now == nil {
		now = time.Now
	}
	sleep := r.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	start := now()
	var lastErr error
	for attempt := 0; ; attempt++ {
		remaining := budget - now().Sub(start)
		if remaining <= 0 {
			if lastErr == nil {
				return fmt.Errorf("before first attempt: %w", ErrBudgetExhausted)
			}
			return fmt.Errorf("after %d attempts: %w: %w", attempt, ErrBudgetExhausted, lastErr)
		}
		err := fn(attempt, remaining)
		if err == nil {
			return nil
		}
		lastErr = err
		if p.Notify != nil {
			p.Notify(attempt, err)
		}
		if p.MaxAttempts > 0 && attempt+1 >= p.MaxAttempts {
			return fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
		}
		d := p.Delay(attempt)
		remaining = budget - now().Sub(start)
		if d >= remaining {
			return fmt.Errorf("after %d attempts: %w: %w", attempt+1, ErrBudgetExhausted, lastErr)
		}
		sleep(d)
	}
}
