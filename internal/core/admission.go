// The admission loop: which bundles a round has to plan.
//
// A round admits the undecided bundle with the least cost/value, ties to the
// lowest query index, after rejecting every bundle that can no longer be
// placed. Planning them all finds both; this loop plans only
//
//   - the bundles whose plan could now fail, first and in ascending order, so
//     that the round's rejections come out as the plan-everything loop emits
//     them. A plan is greedy — each demand takes its cheapest node given what
//     the earlier ones took — so whether it succeeds can depend on the prices
//     that steer the earlier ones, not only on what is free. It cannot fail
//     while the bundle is secure: every demand has a node that serves it
//     whatever the earlier ones take. A secure bundle stays secure until a
//     commit opens a replica of a dataset it demands (the slots can run out)
//     or loads one of its candidate nodes to where some demand fits there
//     only if the earlier ones go elsewhere (disturbed). Being disturbed, and
//     not being secure to begin with, are what put a bundle in this pass;
//   - then the bundles whose lower bound (planDemand) says they could still
//     beat the best ratio found so far, cheapest bound first off a heap. The
//     bound of a bundle that sat out only rises from round to round — except
//     when a replica of a dataset it demands was opened, which also counts as
//     disturbed and has been re-planned in the first pass — so a bundle left
//     on the heap has a true ratio no better than the winner's, and on a tie
//     a higher index.
//
// Last round's ratio itself is no such bound: a price rise can move one
// demand of a bundle off a node and so free it for another demand that paid
// more elsewhere (squeezedProblem in the tests), and through a node that
// has room for either of two demands but not both, a commit that disturbs
// nothing of a bundle can still lower its ratio (relayedProblem). Nor are the
// two kinds of disturbance enough without the notion of secure: a commit that
// touches nothing a bundle needs can re-route its first demand onto the only
// node its second can use (forkedProblem).
package core

import "math"

// boundEntry is a secure bundle's claim on a future round: its ratio can be
// no lower than this. plans ties the entry to the plan it was read off; the
// entry is dead once the bundle has been planned again.
type boundEntry struct {
	ratio float64
	qi    int32
	plans uint32
}

// boundHeap is a min-heap of entries by (ratio, query index), the order in
// which bundles would win a round.
type boundHeap []boundEntry

func (h boundHeap) less(i, j int) bool {
	return h[i].ratio < h[j].ratio || (h[i].ratio == h[j].ratio && h[i].qi < h[j].qi)
}

func (h *boundHeap) push(e boundEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *boundHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && s.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < last && s.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// admitRound runs one round: rejects what cannot be placed any more, admits
// the cheapest bundle per unit of value. It reports whether it admitted one;
// when it did not, every query is decided.
func (a *ascent) admitRound() bool {
	if len(a.live) == 0 {
		return false
	}
	statRounds.Inc()
	a.planned = a.planned[:0]
	best, bestRatio := -1, math.Inf(1)
	consider := func(qi int) {
		if !a.planBundle(qi) {
			a.reject(qi)
			return
		}
		a.planned = append(a.planned, qi)
		b := &a.bundles[qi]
		if ratio := b.cost / b.value; best == -1 || ratio < bestRatio || (ratio == bestRatio && qi < best) {
			best, bestRatio = qi, ratio
		}
	}
	for _, qi := range a.live {
		if !a.bundles[qi].secure {
			consider(qi)
		}
	}
	for len(a.bounds) > 0 {
		top := a.bounds[0]
		qi := int(top.qi)
		if top.plans == a.bundles[qi].plans && best != -1 &&
			(top.ratio > bestRatio || (top.ratio == bestRatio && qi > best)) {
			break
		}
		a.bounds.pop()
		if top.plans == a.bundles[qi].plans {
			consider(qi) // a secure bundle: the plan cannot fail
		}
	}
	if best == -1 {
		return false
	}
	a.commit(best)
	for _, qi := range a.planned {
		if b := &a.bundles[qi]; qi != best && b.secure {
			a.bounds.push(boundEntry{ratio: b.bound / b.value, qi: int32(qi), plans: b.plans})
		}
	}
	a.settle()
	return true
}

// settle drops the decided queries from live after a commit and takes secure
// from the bundles the commit may have disturbed.
func (a *ascent) settle() {
	live := a.live[:0]
	for _, qi := range a.live {
		b := &a.bundles[qi]
		if b.done {
			continue
		}
		live = append(live, qi)
		if b.secure && a.disturbed(b) {
			b.secure = false
		}
	}
	a.live = live
}

// disturbed reports whether the last commit may have lowered b's bound or
// taken a demand's secure node away. Only two things can: a replica it opened
// of a dataset b demands (the opening price is gone where it landed, and the
// dataset has a slot less), and a candidate node of b's it loaded, if some
// demand of b now fits there only as long as the earlier ones go elsewhere.
func (a *ascent) disturbed(b *bundle) bool {
	for _, ds := range a.opened {
		for di := range b.demands {
			if b.demands[di].ds == ds {
				return true
			}
		}
	}
	for _, vi := range a.loaded {
		if !b.candidate(vi) {
			continue
		}
		for di := range b.demands {
			if d := &b.demands[di]; d.need > a.avail[vi]-d.earlierNeed+1e-9 {
				return true
			}
		}
	}
	return false
}

// admitInOrder is the ArbitraryOrder ablation: one pass in query order,
// admitting whatever can be placed when its turn comes. A round, for the
// counter, ends with each admission.
func (a *ascent) admitInOrder() {
	open := false
	for _, qi := range a.live {
		if !open {
			statRounds.Inc()
			open = true
		}
		if !a.planBundle(qi) {
			a.reject(qi)
			continue
		}
		a.commit(qi)
		open = false
	}
}
