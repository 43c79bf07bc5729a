package retry

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeClock is the injected sleeper/clock: Sleep advances
// virtual time instead of blocking, so backoff schedules are asserted
// exactly and the test suite never waits on real backoff.
type fakeClock struct {
	now   time.Time
	slept []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
}

func TestDelayDeterministic(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Multiplier: 2, JitterFrac: 0.25, Seed: 42}
	for attempt := 0; attempt < 8; attempt++ {
		a, b := p.Delay(attempt), p.Delay(attempt)
		if a != b {
			t.Fatalf("Delay(%d) not deterministic: %v vs %v", attempt, a, b)
		}
	}
	// Different seeds must disagree somewhere, or jitter is dead code.
	q := p
	q.Seed = 43
	same := true
	for attempt := 0; attempt < 8; attempt++ {
		if p.Delay(attempt) != q.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Fatal("jitter ignores the seed")
	}
}

func TestDelayGrowthAndCap(t *testing.T) {
	// JitterFrac must be explicit and tiny rather than 0 (0 selects the
	// default), so growth and cap are checked against narrow bounds.
	p := Policy{Base: 100 * time.Millisecond, Cap: 400 * time.Millisecond, Multiplier: 2, JitterFrac: 0.0001}
	want := []time.Duration{100, 200, 400, 400, 400}
	for i, w := range want {
		w *= time.Millisecond
		got := p.Delay(i)
		lo := time.Duration(float64(w) * (1 - 0.001))
		hi := time.Duration(float64(w) * (1 + 0.001))
		if got < lo || got > hi {
			t.Fatalf("Delay(%d) = %v, want ~%v", i, got, w)
		}
	}
}

func TestScheduleStopsInsideBudget(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Multiplier: 2, JitterFrac: 0.0001, Seed: 1}
	budget := 350 * time.Millisecond
	sched := p.Schedule(budget)
	var total time.Duration
	for _, d := range sched {
		total += d
	}
	if total >= budget {
		t.Fatalf("schedule %v overspends budget %v", sched, budget)
	}
	// ~100ms + ~200ms fit; the ~400ms third delay must not.
	if len(sched) != 2 {
		t.Fatalf("schedule %v, want 2 delays", sched)
	}
}

func TestScheduleRespectsMaxAttempts(t *testing.T) {
	p := Policy{Base: time.Millisecond, Cap: time.Second, Multiplier: 2, JitterFrac: 0.0001, MaxAttempts: 3}
	sched := p.Schedule(time.Hour)
	if len(sched) != 2 { // 3 attempts → 2 sleeps between them
		t.Fatalf("schedule %v, want 2 delays for MaxAttempts=3", sched)
	}
}

// TestDoBackoffScheduleDeterministic asserts the exact sequence of sleeps Do
// performs, using the fake clock — no real sleeping, bit-exact schedule.
func TestDoBackoffScheduleDeterministic(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Multiplier: 2, JitterFrac: 0.25, Seed: 7}
	run := func() ([]time.Duration, int) {
		clk := &fakeClock{now: time.Unix(0, 0)}
		r := Runner{Policy: p, Now: clk.Now, Sleep: clk.Sleep}
		calls := 0
		err := r.Run(10*time.Second, func(attempt int, remaining time.Duration) error {
			if attempt != calls {
				t.Fatalf("attempt %d, want %d", attempt, calls)
			}
			calls++
			if calls < 4 {
				return fmt.Errorf("transient %d", calls)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		return clk.slept, calls
	}
	slept1, calls1 := run()
	slept2, calls2 := run()
	if calls1 != 4 || calls2 != 4 {
		t.Fatalf("calls = %d, %d, want 4", calls1, calls2)
	}
	if len(slept1) != 3 {
		t.Fatalf("slept %v, want 3 backoffs", slept1)
	}
	for i := range slept1 {
		if slept1[i] != slept2[i] {
			t.Fatalf("schedule differs between runs: %v vs %v", slept1, slept2)
		}
		if slept1[i] != p.Delay(i) {
			t.Fatalf("slept[%d] = %v, want Delay(%d) = %v", i, slept1[i], i, p.Delay(i))
		}
	}
}

// TestDoBudgetExhausted: the failing-forever case must stop as soon as the
// next backoff no longer fits, without sleeping past the budget, and report
// ErrBudgetExhausted wrapping the last attempt error.
func TestDoBudgetExhausted(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Multiplier: 2, JitterFrac: 0.0001, Seed: 3}
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := Runner{Policy: p, Now: clk.Now, Sleep: clk.Sleep}
	sentinel := errors.New("node down")
	budget := 350 * time.Millisecond
	err := r.Run(budget, func(int, time.Duration) error { return sentinel })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, must wrap the last attempt error", err)
	}
	var total time.Duration
	for _, d := range clk.slept {
		total += d
	}
	if total >= budget {
		t.Fatalf("slept %v total under budget %v", total, budget)
	}
	// ~100ms and ~200ms backoffs fit, third (~400ms) does not → 3 attempts.
	if len(clk.slept) != 2 {
		t.Fatalf("slept %v, want 2 backoffs", clk.slept)
	}
}

// TestDoZeroBudget: no budget means no attempt at all.
func TestDoZeroBudget(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := Runner{Now: clk.Now, Sleep: clk.Sleep}
	calls := 0
	err := r.Run(0, func(int, time.Duration) error { calls++; return nil })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times with zero budget", calls)
	}
}

// TestDoMaxAttempts: the cap stops retries even with budget to spare, and
// the error is the last attempt's (not budget exhaustion).
func TestDoMaxAttempts(t *testing.T) {
	p := Policy{Base: time.Millisecond, Cap: time.Second, Multiplier: 2, JitterFrac: 0.0001, MaxAttempts: 3}
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := Runner{Policy: p, Now: clk.Now, Sleep: clk.Sleep}
	sentinel := errors.New("still down")
	calls := 0
	err := r.Run(time.Hour, func(int, time.Duration) error { calls++; return sentinel })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, must wrap last attempt error", err)
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, budget was not the stopper", err)
	}
}

// TestDoRemainingShrinks: fn's remaining-budget argument must decrease as
// virtual time is consumed by backoff sleeps — callers derive per-attempt
// I/O deadlines from it.
func TestDoRemainingShrinks(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Multiplier: 2, JitterFrac: 0.0001, Seed: 5}
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := Runner{Policy: p, Now: clk.Now, Sleep: clk.Sleep}
	var remainings []time.Duration
	budget := time.Second
	_ = r.Run(budget, func(attempt int, remaining time.Duration) error {
		remainings = append(remainings, remaining)
		if attempt < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if len(remainings) != 3 {
		t.Fatalf("attempts = %d, want 3", len(remainings))
	}
	if remainings[0] != budget {
		t.Fatalf("first remaining = %v, want full budget %v", remainings[0], budget)
	}
	for i := 1; i < len(remainings); i++ {
		if remainings[i] >= remainings[i-1] {
			t.Fatalf("remaining did not shrink: %v", remainings)
		}
	}
}

// TestScheduleBudgetSmallerThanFirstDelay: a budget that cannot fit the
// first backoff step yields an EMPTY schedule — one attempt, then give up.
// Regression for the chaos driver handing Schedule a deadline budget already
// spent by the time the first reject comes back.
func TestScheduleBudgetSmallerThanFirstDelay(t *testing.T) {
	p := Policy{Base: 500 * time.Millisecond, Cap: 4 * time.Second, MaxAttempts: 4, Seed: 1}
	first := p.Delay(0)
	if got := p.Schedule(first - 1); len(got) != 0 {
		t.Fatalf("budget %v (< first delay %v) produced schedule %v, want empty", first-1, first, got)
	}
	if got := p.Schedule(0); len(got) != 0 {
		t.Fatalf("zero budget produced schedule %v, want empty", got)
	}
	if got := p.Schedule(-time.Second); len(got) != 0 {
		t.Fatalf("negative budget produced schedule %v, want empty", got)
	}
}

// TestScheduleTerminatesOnTinyBase: sub-nanosecond backoff products used to
// truncate to a zero delay, which never consumed budget — Schedule spun
// forever growing a slice of zeros. The 1ns floor in Delay makes every step
// consume budget, so the schedule is finite and free of zero delays.
func TestScheduleTerminatesOnTinyBase(t *testing.T) {
	p := Policy{Base: 1, Cap: 2, Multiplier: 1, JitterFrac: 0.9, Seed: 3}
	done := make(chan []time.Duration, 1)
	go func() { done <- p.Schedule(100 * time.Nanosecond) }()
	select {
	case sched := <-done:
		if len(sched) == 0 {
			t.Fatal("tiny-base schedule is empty; budget should fit many 1ns delays")
		}
		for i, d := range sched {
			if d < 1 {
				t.Fatalf("delay %d is %v; the 1ns floor is gone", i, d)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Schedule did not terminate with a tiny base (zero-delay busy loop)")
	}
}

// TestDelayFloorOneNanosecond: the floor applies after jitter, so no
// parameterization can produce a zero (busy-spin) delay.
func TestDelayFloorOneNanosecond(t *testing.T) {
	p := Policy{Base: 1, Cap: 1, Multiplier: 1, JitterFrac: 0.99, Seed: 0}
	for attempt := 0; attempt < 64; attempt++ {
		for seed := int64(0); seed < 64; seed++ {
			p.Seed = seed
			if d := p.Delay(attempt); d < 1 {
				t.Fatalf("Delay(attempt=%d, seed=%d) = %v, want >= 1ns", attempt, seed, d)
			}
		}
	}
}

// TestNotifyHook checks Policy.Notify fires once per failed attempt, in
// order, with the attempt's error — and not for the success.
func TestNotifyHook(t *testing.T) {
	var gotAttempts []int
	var gotErrs []string
	p := Policy{
		Base:        time.Millisecond,
		MaxAttempts: 5,
		Notify: func(attempt int, err error) {
			gotAttempts = append(gotAttempts, attempt)
			gotErrs = append(gotErrs, err.Error())
		},
	}
	fake := time.Unix(0, 0)
	r := Runner{
		Policy: p,
		Now:    func() time.Time { return fake },
		Sleep:  func(d time.Duration) { fake = fake.Add(d) },
	}
	calls := 0
	err := r.Run(time.Hour, func(attempt int, remaining time.Duration) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("boom-%d", attempt)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(gotAttempts) != 2 || gotAttempts[0] != 0 || gotAttempts[1] != 1 {
		t.Fatalf("notify attempts = %v, want [0 1]", gotAttempts)
	}
	if gotErrs[0] != "boom-0" || gotErrs[1] != "boom-1" {
		t.Fatalf("notify errors = %v", gotErrs)
	}
}

// TestNotifyHookOnExhaustion checks Notify still sees the terminal attempt
// when the attempt cap stops the loop.
func TestNotifyHookOnExhaustion(t *testing.T) {
	notified := 0
	p := Policy{Base: time.Millisecond, MaxAttempts: 3, Notify: func(int, error) { notified++ }}
	fake := time.Unix(0, 0)
	r := Runner{Policy: p, Now: func() time.Time { return fake }, Sleep: func(d time.Duration) { fake = fake.Add(d) }}
	err := r.Run(time.Hour, func(int, time.Duration) error { return errors.New("always") })
	if err == nil {
		t.Fatalf("want terminal error")
	}
	if notified != 3 {
		t.Fatalf("notified %d times, want 3 (one per failed attempt)", notified)
	}
}
