package core

import (
	"slices"
	"testing"
	"testing/quick"

	"edgerep/internal/placement"
)

// probe plans query qi against the current state and puts its bundle record
// back as it was: what a round would find if it planned the bundle now.
func (a *ascent) probe(qi int) (ratio float64, ok bool) {
	b := &a.bundles[qi]
	saved, picks := *b, slices.Clone(b.picks)
	ok = a.planBundle(qi)
	ratio = b.cost / b.value
	*b = saved
	copy(b.picks, picks)
	return ratio, ok
}

// stepAscent drives the admission loop a round at a time, as ascend does, and
// calls before ahead of every round with the round's number.
func stepAscent(p *placement.Problem, opt Options, before func(a *ascent, round int)) *ascent {
	a := newAscent(p, opt)
	if !opt.NoProactivePlacement {
		a.proactivePlace()
	}
	for round := 1; ; round++ {
		before(a, round)
		if !a.admitRound() {
			return a
		}
	}
}

// requireBoundsHold checks, ahead of every round, what the loop relies on to
// leave a bundle unplanned: a bundle the round's first pass will skip (still
// marked secure) can still be placed, and its bound is no
// higher than the ratio a plan would find now. And of every plan: bound ≤ cost.
// It returns how many such bundles it checked.
func requireBoundsHold(t *testing.T, p *placement.Problem, opt Options) (skipped int) {
	t.Helper()
	stepAscent(p, opt, func(a *ascent, round int) {
		for _, qi := range a.live {
			b := &a.bundles[qi]
			if b.done || b.plans == 0 {
				continue
			}
			if b.bound > b.cost {
				t.Fatalf("round %d query %d: bound %v above the cost %v of the same plan", round, qi, b.bound, b.cost)
			}
			if !b.secure {
				continue
			}
			skipped++
			ratio, ok := a.probe(qi)
			if !ok {
				t.Fatalf("round %d query %d: became infeasible outside the first pass", round, qi)
			}
			if b.bound/b.value > ratio {
				t.Fatalf("round %d query %d: bound %v above the ratio %v a plan finds now", round, qi, b.bound/b.value, ratio)
			}
		}
	})
	return skipped
}

func TestAdmissionBoundsHold(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, tc := range []struct {
			p   *placement.Problem
			opt Options
		}{
			{scaledProblem(t, seed, 30, 12, 60, 5, 3, false), Options{}},
			{scaledProblem(t, seed, 50, 12, 60, 5, 1, false), Options{NoProactivePlacement: true}},
			{scaledProblem(t, seed, 20, 12, 60, 5, 3, true), Options{}},
		} {
			if requireBoundsHold(t, tc.p, tc.opt) == 0 {
				t.Fatalf("seed %d %+v: no round left any bundle unplanned; nothing was checked", seed, tc.opt)
			}
		}
		if n := requireBoundsHold(t, scaledProblem(t, seed, 30, 12, 60, 5, 3, false), Options{PartialAdmission: true}); n != 0 {
			t.Fatalf("seed %d: PartialAdmission left %d bundles unplanned, want every one planned every round", seed, n)
		}
	}
	for _, opt := range []Options{{}, {NoProactivePlacement: true}} {
		requireBoundsHold(t, squeezedProblem(t), opt)
		requireBoundsHold(t, relayedProblem(t), opt)
		requireBoundsHold(t, forkedProblem(t), opt)
	}
	if !testing.Short() {
		requireBoundsHold(t, benchProblem(t, 1, 5), Options{})
	}
	property := func(seed int64, kRaw, nqRaw, fRaw uint8) bool {
		p := scaledProblem(t, seed, 30, 10, 10+int(nqRaw)%60, 1+int(fRaw)%6, 1+int(kRaw)%5, false)
		requireBoundsHold(t, p, Options{})
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHandBuiltInstancesReachTheirCases pins what squeezedProblem,
// relayedProblem and forkedProblem are for, so that a retuned price cannot quietly turn them into
// two more ordinary instances.
func TestHandBuiltInstancesReachTheirCases(t *testing.T) {
	lazy := Options{NoProactivePlacement: true}

	var first, second float64
	stepAscent(squeezedProblem(t), lazy, func(a *ascent, round int) {
		switch round {
		case 1:
			first, _ = a.probe(0)
		case 2:
			if b := &a.bundles[0]; !(b.bound < b.cost) {
				t.Fatalf("squeezed: query 0's bound %v is not below its plan's cost %v", b.bound, b.cost)
			}
			second, _ = a.probe(0)
		}
	})
	if !(second < first) {
		t.Fatalf("squeezed: query 0's ratio went %v → %v over a commit that only raised prices; want a fall", first, second)
	}

	stepAscent(relayedProblem(t), lazy, func(a *ascent, round int) {
		if round != 2 {
			return
		}
		b := &a.bundles[0]
		if b.done || !b.secure {
			t.Fatalf("relayed: query 0 done=%v secure=%v going into round 2; want it left to its bound", b.done, b.secure)
		}
		before, now := b.cost/b.value, 0.0
		if now, _ = a.probe(0); !(now < before) {
			t.Fatalf("relayed: query 0's ratio went %v → %v; want a fall", before, now)
		}
		if other, _ := a.probe(2); !(now < other && other < before) {
			t.Fatalf("relayed: query 2's ratio %v is not between query 0's new %v and old %v", other, now, before)
		}
	})

	a := stepAscent(forkedProblem(t), lazy, func(a *ascent, round int) {
		if round != 2 {
			return
		}
		b := &a.bundles[0]
		if b.done || b.plans != 1 {
			t.Fatalf("forked: query 0 done=%v after %d plans going into round 2; want one plan that succeeded", b.done, b.plans)
		}
		if b.secure {
			t.Fatal("forked: query 0 is secure; its second demand has one node, which its first can take")
		}
		if won := &a.bundles[1]; !won.done || a.disturbed(b) {
			t.Fatalf("forked: round 1 admitted query 1 = %v and disturbed query 0 = %v; want true, false", won.done, a.disturbed(b))
		}
		if _, ok := a.probe(0); ok {
			t.Fatal("forked: query 0 can still be placed after round 1")
		}
	})
	if !a.bundles[0].done || a.rejected != 1 {
		t.Fatalf("forked: %d rejected, want query 0 alone", a.rejected)
	}
}
