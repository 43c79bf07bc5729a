// The reference ascent: the admission loop as it was before the candidate
// lists, the replica mirror and the bound heap — every undecided bundle
// planned every round, each demand priced at every compute node through a
// dense delays[query][demand][node] cube, replicas looked up in the solution.
// run, planBundle, demandCost, proactivePlace and commit are the old bodies;
// only what they hang off is new (refAscent wraps a production ascent for the
// capacity ledger, the solution and the trace emitters, and carries the cube,
// the per-round θ cache, the preferred sites and the scratch itself).
// TestAscentMatchesReference and the fuzz target hold the production loop to
// it: same Result, same trace bytes.

package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

type refAscent struct {
	*ascent
	// delays caches EvalDelay per (query index, demand index, node index).
	delays [][][]float64
	// thetaCache holds θ per node index for the current admission round.
	thetaCache []float64
	// preferred holds the proactive phase's sites, dense per (dataset, node
	// index); nil rows mean no preferred sites.
	preferred [][]bool
}

type refPairCost struct {
	node graph.NodeID
	cost float64
	need float64
	open bool
}

type refBundlePlan struct {
	qi      int
	cost    float64
	value   float64
	picks   []refPairCost
	partial bool
}

func newRefAscent(p *placement.Problem, opt Options) *refAscent {
	a := &refAscent{ascent: newAscent(p, opt)}
	a.thetaCache = make([]float64, len(a.nodes))
	a.preferred = make([][]bool, len(p.Datasets))
	a.delays = make([][][]float64, len(p.Queries))
	for qi := range p.Queries {
		q := &p.Queries[qi]
		a.delays[qi] = make([][]float64, len(q.Demands))
		for di := range q.Demands {
			row := make([]float64, len(a.nodes))
			for vi, v := range a.nodes {
				d, ok := p.EvalDelay(q.ID, q.Demands[di].Dataset, v)
				if !ok {
					d = math.Inf(1)
				}
				row[vi] = d
			}
			a.delays[qi][di] = row
		}
	}
	return a
}

func (a *refAscent) newScratch() *scratch {
	return &scratch{
		extraUse:  make([]float64, len(a.nodes)),
		extraOpen: make([]bool, len(a.p.Datasets)*len(a.nodes)),
		openCount: make([]int, len(a.p.Datasets)),
	}
}

func (a *refAscent) isPreferred(ds workload.DatasetID, vi int) bool {
	row := a.preferred[ds]
	return row != nil && row[vi]
}

func (a *refAscent) proactivePlace() {
	type demandRef struct {
		qi, di int
		need   float64
	}
	// Collect demands per dataset and total demand volumes.
	perDataset := make(map[workload.DatasetID][]demandRef)
	totalNeed := make(map[workload.DatasetID]float64)
	for qi := range a.p.Queries {
		q := &a.p.Queries[qi]
		for di, dm := range q.Demands {
			need := a.p.ComputeNeed(q.ID, dm.Dataset)
			perDataset[dm.Dataset] = append(perDataset[dm.Dataset], demandRef{qi: qi, di: di, need: need})
			totalNeed[dm.Dataset] += need
		}
	}
	order := make([]workload.DatasetID, 0, len(perDataset))
	for n := range perDataset {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		if totalNeed[order[i]] != totalNeed[order[j]] {
			return totalNeed[order[i]] > totalNeed[order[j]]
		}
		return order[i] < order[j]
	})

	// claimed tracks expected capacity committed to already-chosen sites so
	// replicas of different datasets spread instead of stacking on one
	// popular cloudlet.
	claimed := make([]float64, len(a.nodes))

	for _, n := range order {
		demands := perDataset[n]
		covered := make([]bool, len(demands))
		for slot := 0; slot < a.p.MaxReplicas; slot++ {
			bestIx := -1
			bestEff := 0.0
			for vi, v := range a.nodes {
				if a.isPreferred(n, vi) {
					continue
				}
				cover := 0.0
				for i, d := range demands {
					if covered[i] {
						continue
					}
					if a.delays[d.qi][d.di][vi] <= a.p.Queries[d.qi].DeadlineSec {
						cover += d.need
					}
				}
				if cover <= 0 {
					continue
				}
				eff := math.Min(cover, a.caps[vi]-claimed[vi])
				if eff > bestEff || (eff == bestEff && bestIx != -1 && v < a.nodes[bestIx]) {
					bestIx, bestEff = vi, eff
				}
			}
			if bestIx == -1 || bestEff <= 0 {
				break // no remaining useful site for this dataset
			}
			if a.preferred[n] == nil {
				a.preferred[n] = make([]bool, len(a.nodes))
			}
			a.preferred[n][bestIx] = true
			statProactiveSites.Inc()
			// Mark demands covered only up to the node's remaining
			// capacity budget, smallest-need first (serves the most
			// queries per GHz); the rest stay uncovered so later slots
			// are spent where capacity actually exists.
			budget := a.caps[bestIx] - claimed[bestIx]
			var feasible []int
			for i, d := range demands {
				if !covered[i] && a.delays[d.qi][d.di][bestIx] <= a.p.Queries[d.qi].DeadlineSec {
					feasible = append(feasible, i)
				}
			}
			sort.Slice(feasible, func(x, y int) bool {
				if demands[feasible[x]].need != demands[feasible[y]].need {
					return demands[feasible[x]].need < demands[feasible[y]].need
				}
				return feasible[x] < feasible[y]
			})
			marked := 0.0
			for _, i := range feasible {
				if marked+demands[i].need > budget && marked > 0 {
					break
				}
				covered[i] = true
				marked += demands[i].need
			}
			claimed[bestIx] += marked
		}
	}
}

// refreshTheta fills thetaCache for the current admission round. avail/caps
// change only in commit, so every bundle priced within one round sees the
// same θ whether it reads the cache or recomputes.
func (a *refAscent) refreshTheta() {
	for vi := range a.nodes {
		a.thetaCache[vi] = a.thetaAt(vi)
	}
}

// demandCost prices serving demand di of query qi at every node and returns
// the cheapest feasible option. sc carries tentative per-node load and
// tentative replica openings from other demands of the same bundle.
func (a *refAscent) demandCost(qi, di int, sc *scratch) (refPairCost, bool) {
	q := &a.p.Queries[qi]
	dm := q.Demands[di]
	size := a.p.Datasets[dm.Dataset].SizeGB
	need := size * q.ComputePerGB
	deadline := q.DeadlineSec

	best := refPairCost{cost: math.Inf(1)}
	found := false

	flatBase := int(dm.Dataset) * len(a.nodes)
	openCount := a.sol.ReplicaCount(dm.Dataset) + sc.openCount[dm.Dataset]
	delays := a.delays[qi][di]
	for vi, v := range a.nodes {
		delay := delays[vi]
		if delay > deadline { // constraint (4): η price infinite
			continue
		}
		if need > a.avail[vi]-sc.extraUse[vi]+1e-9 { // constraint (2)
			continue
		}
		hasReplica := a.sol.HasReplica(dm.Dataset, v) || sc.extraOpen[flatBase+vi]
		open := false
		repPrice := 0.0
		if !hasReplica {
			if openCount >= a.p.MaxReplicas { // constraint (5): µ infinite
				continue
			}
			open = true
			if !a.isPreferred(dm.Dataset, vi) {
				repPrice = a.repW * size * float64(openCount+1) / float64(a.p.MaxReplicas)
			}
		}
		cost := need*a.thetaCache[vi] + a.delW*size*(delay/deadline) + repPrice
		if cost < best.cost || (cost == best.cost && found && v < best.node) {
			best = refPairCost{node: v, cost: cost, need: need, open: open}
			found = true
		}
	}
	return best, found
}

// planBundle prices query qi's full bundle. Demands are placed one at a time
// against tentative capacity (tracked in sc) so that two demands of the same
// query cannot both count the same free capacity. sc is reset on entry.
func (a *refAscent) planBundle(qi int, sc *scratch) (refBundlePlan, bool) {
	statBundlesPriced.Inc()
	sc.reset()
	q := &a.p.Queries[qi]
	plan := refBundlePlan{qi: qi, picks: make([]refPairCost, 0, len(q.Demands))}
	for di := range q.Demands {
		pick, ok := a.demandCost(qi, di, sc)
		if !ok {
			if !a.opt.PartialAdmission {
				return refBundlePlan{}, false
			}
			plan.partial = true
			plan.picks = append(plan.picks, refPairCost{node: -1})
			continue
		}
		plan.cost += pick.cost
		plan.value += a.p.Datasets[q.Demands[di].Dataset].SizeGB
		plan.picks = append(plan.picks, pick)
		vi := a.nodeIx[pick.node]
		if sc.extraUse[vi] == 0 {
			sc.usedNodes = append(sc.usedNodes, vi)
		}
		sc.extraUse[vi] += pick.need
		if pick.open {
			ds := int(q.Demands[di].Dataset)
			fi := ds*len(a.nodes) + vi
			if !sc.extraOpen[fi] {
				sc.extraOpen[fi] = true
				sc.openFlat = append(sc.openFlat, fi)
				sc.openCount[ds]++
				if sc.openCount[ds] == 1 {
					sc.openDatasets = append(sc.openDatasets, ds)
				}
			}
		}
	}
	if plan.value == 0 {
		return refBundlePlan{}, false // nothing placeable even partially
	}
	return plan, true
}

// commit applies a plan: allocates capacity, opens replicas, records the
// admission. (The delay histograms, which read the plan's delays, are fed by
// the production commit only.)
func (a *refAscent) commit(plan refBundlePlan) {
	q := &a.p.Queries[plan.qi]
	var as []placement.Assignment
	for di, pick := range plan.picks {
		if pick.node < 0 {
			continue // infeasible demand under PartialAdmission
		}
		ds := q.Demands[di].Dataset
		vi := a.nodeIx[pick.node]
		a.avail[vi] -= pick.need
		if a.avail[vi] < 0 {
			a.avail[vi] = 0
		}
		a.noteUse(vi, pick.need)
		a.sol.AddReplica(ds, pick.node)
		as = append(as, placement.Assignment{Query: q.ID, Dataset: ds, Node: pick.node})
	}
	a.sol.Admit(q.ID, as)
	statAdmitted.Inc()
	a.publishUtil()
}

// emitAdmit hands the reference's plan to the production emitter, which
// reads the bundle record.
func (a *refAscent) emitAdmit(plan refBundlePlan, round int) {
	b := &a.bundles[plan.qi]
	b.value = plan.value
	for di, pick := range plan.picks {
		b.picks[di] = pairCost{node: pick.node}
	}
	a.rounds = round
	a.ascent.emitAdmit(plan.qi)
}

// runReference executes the dual ascent to exhaustion, planning every
// undecided bundle in every round. Like ascend, it leaves Validate to its
// caller.
func runReference(p *placement.Problem, opt Options, algo string) *Result {
	a := newRefAscent(p, opt)
	a.beginTrace(algo)
	if !opt.NoProactivePlacement {
		start := instrument.Mono()
		a.proactivePlace()
		a.emitPhase("proactive", instrument.Mono()-start)
	}
	ascentStart := instrument.Mono()
	remaining := make([]int, len(p.Queries))
	for i := range remaining {
		remaining[i] = i
	}
	res := &Result{}
	sc := a.newScratch()

	for len(remaining) > 0 {
		statRounds.Inc()
		a.refreshTheta()
		bestIdx := -1
		var best refBundlePlan
		bestRatio := math.Inf(1)
		next := make([]int, 0, len(remaining))
		for _, qi := range remaining {
			plan, ok := a.planBundle(qi, sc)
			if !ok {
				// Capacity only shrinks and frozen replica sets only
				// freeze harder, so infeasibility is permanent.
				res.Rejected++
				statRejected.Inc()
				a.emitReject(qi, res.Rounds+1)
				continue
			}
			next = append(next, qi)
			ratio := plan.cost / plan.value
			if bestIdx == -1 || ratio < bestRatio {
				bestIdx, best, bestRatio = qi, plan, ratio
			}
			if opt.ArbitraryOrder && bestIdx != -1 {
				break // take the first feasible query in ID order
			}
		}
		if opt.ArbitraryOrder {
			// Preserve the untried tail of the remaining list.
			seen := false
			for _, qi := range remaining {
				if qi == bestIdx {
					seen = true
					continue
				}
				if seen {
					next = append(next, qi)
				}
			}
		}
		if bestIdx == -1 {
			break
		}
		a.commit(best)
		res.Rounds++
		a.emitAdmit(best, res.Rounds)
		// Drop the admitted query from the remaining set.
		out := next[:0]
		for _, qi := range next {
			if qi != bestIdx {
				out = append(out, qi)
			}
		}
		remaining = out
	}

	a.emitPhase("admission", instrument.Mono()-ascentStart)
	a.endTrace()

	res.Solution = a.sol
	res.FinalTheta = make(map[graph.NodeID]float64, len(a.nodes))
	for vi, v := range a.nodes {
		res.FinalTheta[v] = a.thetaAt(vi)
	}
	res.PreferredSites = make(map[workload.DatasetID][]graph.NodeID, len(a.preferred))
	for ds, row := range a.preferred {
		if row == nil {
			continue
		}
		n := workload.DatasetID(ds)
		for vi, on := range row {
			if on {
				res.PreferredSites[n] = append(res.PreferredSites[n], a.nodes[vi])
			}
		}
		sort.Slice(res.PreferredSites[n], func(i, j int) bool {
			return res.PreferredSites[n][i] < res.PreferredSites[n][j]
		})
	}
	return res
}

// planDemandFull is planDemand as it was before the walk stopped early: every
// candidate priced, in ascending node order. TestPlanDemandStopsExactly holds
// planDemand to it.
func (a *ascent) planDemandFull(d *demand, sc *scratch) (best pairCost, bound float64, secure, found bool) {
	cands := slices.Clone(d.cands)
	slices.SortFunc(cands, func(x, y placement.Candidate) int { return cmp.Compare(x.Index, y.Index) })
	need := d.need
	maxRep := a.p.MaxReplicas
	sites := a.sites[d.ds*len(a.nodes):][:len(a.nodes)]
	extraOpen := sc.extraOpen[d.ds*len(a.nodes):][:len(a.nodes)]
	repCount := a.repCount[d.ds]
	openCount := repCount + sc.openCount[d.ds]
	openPrice := a.repW * d.size * float64(repCount+1) / float64(maxRep)
	tentPrice := a.repW * d.size * float64(openCount+1) / float64(maxRep)
	if d.earlierSame > 0 {
		openPrice = 0
	}
	canOpenAnyway := repCount+d.earlierSame < maxRep

	inf := math.Inf(1)
	best = pairCost{cost: inf}
	bound = inf
	for _, c := range cands {
		vi := int(c.Index)
		priced := need*a.theta[vi] + d.sizeW*c.Slack
		site := sites[vi]
		loose := priced
		if site&siteReplica == 0 {
			if repCount >= maxRep {
				continue
			}
			if site == 0 {
				loose += openPrice
			}
		}
		room := a.avail[vi]
		if need > room+1e-9 {
			continue
		}
		if loose < bound {
			bound = loose
		}
		if !secure && priced < inf && (site&siteReplica != 0 || canOpenAnyway) && need <= room-d.earlierNeed+1e-9 {
			secure = true
		}
		if need > room-sc.extraUse[vi]+1e-9 {
			continue
		}
		open := false
		repPrice := 0.0
		if site&siteReplica == 0 && !extraOpen[vi] {
			if openCount >= maxRep {
				continue
			}
			open = true
			if site == 0 {
				repPrice = tentPrice
			}
		}
		cost := priced + repPrice
		v := a.nodes[vi]
		if cost < best.cost || (cost == best.cost && found && v < best.node) {
			best = pairCost{node: v, vi: vi, cost: cost, open: open}
			found = true
		}
	}
	return best, bound, secure, found
}
