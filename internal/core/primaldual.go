// Package core implements the paper's primary contribution: the primal-dual
// dynamic-update approximation algorithms Appro-S (each query demands a
// single dataset) and Appro-G (each query demands multiple datasets) for the
// proactive QoS-aware data replication and placement problem (paper §3).
//
// The ILP (paper (1)–(7)) maximizes the volume of datasets demanded by
// admitted queries subject to per-node computing capacities (2), replica
// presence (3), QoS deadlines (4), and the per-dataset replica bound K (5).
// Its dual prices capacity (θ_l), assignment (y_ml), deadlines (η_ml) and
// replica creation (µ_qm). Algorithm 1 of the paper raises all dual
// variables uniformly until dual constraint (9) becomes tight for some
// (query, node) pair and admits that pair; this package realizes the ascent
// deterministically:
//
//   - θ grows exponentially with node utilization — the standard
//     primal-dual packing price θ(u) = (c^u − 1)/(c − 1) with c = 1 + |Q|,
//     so heavily-loaded nodes price themselves out exactly as the uniform
//     ascent would;
//   - η contributes the deadline-slack fraction delay/d_q (infinite when the
//     deadline is violated, enforcing (4));
//   - µ contributes a replica-opening price that is zero on nodes already
//     holding the dataset, grows with the replica count, and is infinite
//     once K replicas exist elsewhere, enforcing (5).
//
// The ascent runs in two phases, mirroring the proactive nature of the
// problem (replicas are placed in advance of query evaluation, §2.3):
//
//  1. Replication (µ/y tightening): for each dataset, up to K replica sites
//     are selected by volume-weighted maximum coverage — each site is the
//     node covering the largest uncovered deadline-feasible demand volume,
//     capped by the node's remaining expected capacity. This is the point
//     where µ_qm − y_ml = 0 becomes tight in Algorithm 1: a replica is
//     created exactly when enough query demand pays for it.
//  2. Admission (θ/η ascent): each round admits the (query, node) pair whose
//     dual cost per unit of primal value (demanded volume) is minimal — the
//     pair whose constraint (9) goes tight first — then updates prices and
//     repeats. Appro-G runs the same machinery over a query's whole demanded
//     bundle with all-or-nothing admission (paper Algorithm 2 invokes the
//     Appro-S machinery per demanded dataset).
//
// A round's winner is the minimum of cost/value over every undecided bundle,
// each planned greedily against the prices of that round. The admission loop
// (admission.go) finds that minimum without planning them all: it keeps, per
// bundle, a lower bound on the ratio that commits elsewhere can only raise,
// re-plans the bundles whose bound could still win, and re-plans ahead of
// that exactly the bundles a commit could have made infeasible — so every
// rejection is still found in the round, against the state, and in the order
// the plan-everything loop finds it. That loop is kept as the oracle in
// reference_test.go; results, traces and FinalTheta are equal bit for bit.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Ascent instrumentation (enabled via instrument.Enable; surfaced by the
// cmd/ binaries' -stats flag and the BENCH report).
var (
	statRounds         = instrument.NewCounter("core.ascent_rounds")
	statBundlesPriced  = instrument.NewCounter("core.bundles_priced")
	statAdmitted       = instrument.NewCounter("core.admitted_queries")
	statRejected       = instrument.NewCounter("core.rejected_queries")
	statProactiveSites = instrument.NewCounter("core.proactive_sites")
)

// Options tunes the dual ascent. The zero value selects the defaults used
// throughout the paper reproduction.
type Options struct {
	// PriceBase is c in θ(u) = (c^u − 1)/(c − 1). Zero means the default
	// 2, a gentle near-linear price that spreads load early; the classic
	// online-packing choice 1 + |Q| prices only near-full nodes and is
	// available via this option (see BenchmarkAblationPriceBase).
	PriceBase float64
	// ReplicaPriceWeight scales the replica-opening component of the dual
	// cost (µ). Zero means the default 0.25.
	ReplicaPriceWeight float64
	// DelayPriceWeight scales the deadline-slack component of the dual
	// cost (η). Zero means the default 0.15; the capacity price θ must
	// stay competitive with the delay price or the ascent piles load onto
	// the few lowest-delay nodes and starves later queries.
	DelayPriceWeight float64
	// PartialAdmission, when true, lets Appro-G admit the feasible subset
	// of a query's bundle instead of all-or-nothing. The paper's admission
	// is all-or-nothing (a query is admitted only if its QoS holds for all
	// demanded datasets); this switch exists for the ablation bench and is
	// rejected by Validate because partially-served queries violate the
	// ILP. Partial solutions are therefore returned unvalidated.
	PartialAdmission bool
	// ArbitraryOrder, when true, disables the min-cost-per-value global
	// selection and admits queries in ID order (ablation).
	ArbitraryOrder bool
	// NoProactivePlacement disables the coverage-driven replication phase
	// so replicas open lazily during admission (ablation). The paper's
	// algorithm is proactive; this switch quantifies how much that phase
	// contributes.
	NoProactivePlacement bool
}

func (o Options) priceBase() float64 {
	if o.PriceBase > 0 {
		return o.PriceBase
	}
	return 2
}

func (o Options) replicaWeight() float64 {
	if o.ReplicaPriceWeight > 0 {
		return o.ReplicaPriceWeight
	}
	return 0.25
}

func (o Options) delayWeight() float64 {
	if o.DelayPriceWeight > 0 {
		return o.DelayPriceWeight
	}
	return 0.15
}

// Result carries the solution and ascent statistics.
type Result struct {
	Solution *placement.Solution
	// Rounds is the number of dual-ascent rounds (= admitted queries).
	Rounds int
	// Rejected counts queries that became permanently infeasible.
	Rejected int
	// FinalTheta is the capacity price θ_l of every compute node at the
	// end of the ascent — the dual certificate of where capacity was the
	// binding resource (observability for operators and tests).
	FinalTheta map[graph.NodeID]float64
	// PreferredSites are the proactive phase's chosen sites per dataset
	// (sorted); empty under Options.NoProactivePlacement.
	PreferredSites map[workload.DatasetID][]graph.NodeID
}

// ApproS runs the special-case algorithm: every query must demand exactly
// one dataset (paper Algorithm 1).
func ApproS(p *placement.Problem, opt Options) (*Result, error) {
	for i := range p.Queries {
		if len(p.Queries[i].Demands) != 1 {
			return nil, fmt.Errorf("core: ApproS requires single-dataset queries; query %d demands %d",
				p.Queries[i].ID, len(p.Queries[i].Demands))
		}
	}
	return run(p, opt, "appro-s")
}

// ApproG runs the general algorithm: queries may demand multiple datasets
// (paper Algorithm 2). Admission is all-or-nothing over the demanded bundle
// unless Options.PartialAdmission is set.
func ApproG(p *placement.Problem, opt Options) (*Result, error) {
	return run(p, opt, "appro-g")
}

// cand is one node a demand can be served from within its deadline
// (constraint (4); everywhere else the η price is infinite).
type cand struct {
	vi    int32 // index into ascent.nodes
	delay float64
}

// demand is what is fixed about one demanded dataset of a query.
type demand struct {
	ds   int // dataset index
	size float64
	need float64
	// sizeW is delW·size, the left factor of the deadline-slack price.
	sizeW float64
	// cands lists the deadline-feasible nodes in ascending node order.
	cands []cand
	// earlierNeed is the sum of the needs of the bundle's earlier demands,
	// added in the order planBundle adds them to a node's tentative load: the
	// most of that load this demand can meet on any node. earlierSame counts
	// the earlier demands of the same dataset: the most tentative openings of
	// it this demand can meet.
	earlierNeed float64
	earlierSame int
}

// pairCost is the dual cost of serving one demanded dataset of a query at a
// node, plus the bookkeeping needed to commit it.
type pairCost struct {
	node  graph.NodeID // -1: infeasible demand under PartialAdmission
	vi    int
	cost  float64
	delay float64
	open  bool // a new replica must be created
}

// bundle is one query: its demands' tables and its latest plan — the
// tentative min-cost assignment of the whole bundle, and what the admission
// loop derives from the same pass to decide when the plan is next needed.
type bundle struct {
	deadline float64
	demands  []demand
	// nodes is the union of the demands' candidates, a bitset over node index.
	nodes []uint64

	picks []pairCost // one per demand, rewritten by every planBundle
	cost  float64
	value float64
	// bound ≤ cost, and no commit lowers it except one that opens a replica
	// of a dataset the bundle demands (see planDemand).
	bound float64
	// secure: every demand has a node it can be served from whatever the
	// bundle's earlier demands take, so the plan cannot fail, and no commit
	// since the plan can have lowered bound. The admission loop clears it when
	// a commit may have undone either.
	secure bool
	done   bool   // admitted or rejected
	plans  uint32 // how many times planned; stamps the bundle's entry in ascent.bounds
}

// ascent holds the mutable state of the dual ascent. The hot-path state
// (capacities, prices, replicas, preferred sites, candidate lists) is kept in
// dense slices indexed by compute-node index — no map lookups or
// per-candidate allocations inside the pricing loops.
type ascent struct {
	p   *placement.Problem
	opt Options
	// avail and caps track capacity per node index without mutating the
	// shared cloud.
	avail []float64
	caps  []float64
	sol   *placement.Solution
	base  float64
	repW  float64
	delW  float64
	nodes []graph.NodeID
	// nodeIx serves the rejection classifier, which asks by node ID.
	nodeIx map[graph.NodeID]int
	// theta holds θ per node index. θ depends only on avail/caps, which
	// change exclusively in commit, so commit re-prices the nodes it loaded
	// and every bundle planned before the next commit sees the same θ.
	theta []float64
	// sites[ds·|V|+vi] says what node vi is to dataset ds: holder of a replica
	// (with repCount[ds], the mirror of what commit wrote into sol: the pricing
	// loop reads the mirror; sol stays the source of truth for the rejection
	// classifier, Validate and the result) and site chosen by the proactive
	// replication phase. A replica only materializes (and counts toward K)
	// when a query is actually assigned to it; preferred sites carry zero
	// opening price in the dual cost, steering the ascent toward the
	// coverage-optimal layout without freezing K slots on never-used copies.
	sites    []uint8
	repCount []int

	bundles []bundle
	sc      scratch
	// live lists the undecided queries in ascending order; the rest is the
	// admission loop's working state (admission.go).
	live     []int
	planned  []int     // bundles planned in the current round
	bounds   boundHeap // secure bundles by bound/value
	opened   []int     // datasets the last commit opened a replica of
	loaded   []int     // node indices it loaded
	assigned []placement.Assignment
	rounds   int
	rejected int

	// algo and traceRun identify this run in emitted trace events; nodeClass,
	// classUsed, and classCap back the per-class utilization gauges (see
	// trace.go).
	algo      string
	traceRun  int64
	nodeClass []int
	classUsed [numClasses]float64
	classCap  [numClasses]float64
}

const (
	siteReplica   uint8 = 1 << iota // the dataset has a replica on the node
	sitePreferred                   // the proactive phase chose the node for the dataset
)

// candidate reports whether node index vi serves any of the bundle's demands
// within its deadline.
func (b *bundle) candidate(vi int) bool { return b.nodes[vi>>6]&(1<<(vi&63)) != 0 }

// scratch carries the per-bundle tentative state of planBundle/planDemand:
// per-node tentative capacity use and per-(dataset, node) tentative replica
// openings. Buffers are dense and reset in O(touched) via the recorded
// touch lists, so a bundle evaluation allocates nothing.
type scratch struct {
	extraUse  []float64 // tentative GHz per node index
	usedNodes []int     // node indices with extraUse != 0

	extraOpen []bool // tentative opening per ds*numNodes+vi
	openFlat  []int  // flat indices with extraOpen set

	openCount    []int // tentative openings per dataset
	openDatasets []int // datasets with openCount != 0
}

// reset clears only the entries a bundle actually touched.
func (sc *scratch) reset() {
	for _, vi := range sc.usedNodes {
		sc.extraUse[vi] = 0
	}
	sc.usedNodes = sc.usedNodes[:0]
	for _, fi := range sc.openFlat {
		sc.extraOpen[fi] = false
	}
	sc.openFlat = sc.openFlat[:0]
	for _, ds := range sc.openDatasets {
		sc.openCount[ds] = 0
	}
	sc.openDatasets = sc.openDatasets[:0]
}

func newAscent(p *placement.Problem, opt Options) *ascent {
	nodes := p.Cloud.ComputeNodes()
	a := &ascent{
		p:        p,
		opt:      opt,
		sol:      placement.NewSolution(),
		base:     opt.priceBase(),
		repW:     opt.replicaWeight(),
		delW:     opt.delayWeight(),
		nodes:    nodes,
		nodeIx:   make(map[graph.NodeID]int, len(nodes)),
		avail:    make([]float64, len(nodes)),
		caps:     make([]float64, len(nodes)),
		theta:    make([]float64, len(nodes)),
		sites:    make([]uint8, len(p.Datasets)*len(nodes)),
		repCount: make([]int, len(p.Datasets)),
		sc: scratch{
			extraUse:  make([]float64, len(nodes)),
			extraOpen: make([]bool, len(p.Datasets)*len(nodes)),
			openCount: make([]int, len(p.Datasets)),
		},
	}
	procDelay := make([]float64, len(nodes))
	for i, v := range nodes {
		a.nodeIx[v] = i
		a.avail[i] = p.Cloud.Available(v)
		a.caps[i] = p.Cloud.Capacity(v)
		a.theta[i] = a.thetaAt(i)
		procDelay[i] = p.Cloud.ProcDelayPerGB(v)
	}
	a.buildBundles(procDelay)
	a.initClasses()
	return a
}

// buildBundles prices every (query, demand) pair at every compute node once
// and keeps the nodes that meet the deadline. The per-pair tables are cut from
// three slabs; only the candidate lists, whose lengths the pass finds, are
// allocated one by one, at their exact size.
func (a *ascent) buildBundles(procDelay []float64) {
	p := a.p
	numDemands := 0
	for qi := range p.Queries {
		numDemands += len(p.Queries[qi].Demands)
	}
	demands := make([]demand, numDemands)
	picks := make([]pairCost, numDemands)
	words := (len(a.nodes) + 63) / 64
	nodeBits := make([]uint64, len(p.Queries)*words)
	row := make([]cand, 0, len(a.nodes))
	a.bundles = make([]bundle, len(p.Queries))
	a.live = make([]int, len(p.Queries))
	for qi := range p.Queries {
		q := &p.Queries[qi]
		n := len(q.Demands)
		b := &a.bundles[qi]
		b.deadline = q.DeadlineSec
		b.demands, demands = demands[:n:n], demands[n:]
		b.picks, picks = picks[:n:n], picks[n:]
		b.nodes, nodeBits = nodeBits[:words:words], nodeBits[words:]
		earlier := 0.0
		for di, dm := range q.Demands {
			size := p.Datasets[dm.Dataset].SizeGB
			d := &b.demands[di]
			*d = demand{
				ds:          int(dm.Dataset),
				size:        size,
				need:        size * q.ComputePerGB,
				sizeW:       a.delW * size,
				earlierNeed: earlier,
			}
			for _, e := range b.demands[:di] {
				if e.ds == d.ds {
					d.earlierSame++
				}
			}
			earlier += d.need
			delays := p.DemandDelays(q.ID, dm.Dataset, procDelay)
			row = row[:0]
			for vi := range a.nodes {
				if delay := delays.At(vi); delay <= q.DeadlineSec {
					row = append(row, cand{vi: int32(vi), delay: delay})
					b.nodes[vi>>6] |= 1 << (vi & 63)
				}
			}
			d.cands = slices.Clone(row)
		}
		a.live[qi] = qi
	}
}

// isPreferred reports whether node index vi is a proactive site of ds.
func (a *ascent) isPreferred(ds, vi int) bool {
	return a.sites[ds*len(a.nodes)+vi]&sitePreferred != 0
}

// proactivePlace runs the replication phase: volume-weighted maximum
// coverage, per dataset, capped by expected node capacity. Datasets are
// processed in descending total-demand order so contended datasets choose
// sites first. Sites selected here enter the solution's replica sets; the
// admission phase may still open leftover slots lazily (count < K).
func (a *ascent) proactivePlace() {
	// Collect demands per dataset and total demand volumes.
	perDataset := make([][]*demand, len(a.p.Datasets))
	totalNeed := make([]float64, len(a.p.Datasets))
	most := 0
	for qi := range a.bundles {
		for di := range a.bundles[qi].demands {
			d := &a.bundles[qi].demands[di]
			perDataset[d.ds] = append(perDataset[d.ds], d)
			totalNeed[d.ds] += d.need
			most = max(most, len(perDataset[d.ds]))
		}
	}
	order := make([]int, 0, len(perDataset))
	for ds, demands := range perDataset {
		if len(demands) > 0 {
			order = append(order, ds)
		}
	}
	slices.SortFunc(order, func(x, y int) int {
		if totalNeed[x] != totalNeed[y] {
			return cmp.Compare(totalNeed[y], totalNeed[x])
		}
		return cmp.Compare(x, y)
	})

	// claimed tracks expected capacity committed to already-chosen sites so
	// replicas of different datasets spread instead of stacking on one
	// popular cloudlet.
	claimed := make([]float64, len(a.nodes))
	cover := make([]float64, len(a.nodes))
	coveredBuf := make([]bool, most)
	feasible := make([]int, 0, most)

	for _, n := range order {
		demands := perDataset[n]
		covered := coveredBuf[:len(demands)]
		clear(covered)
		for slot := 0; slot < a.p.MaxReplicas; slot++ {
			// cover[vi]: the uncovered demand volume node vi can serve in
			// time, each node's sum taken in demand order.
			clear(cover)
			for i, d := range demands {
				if covered[i] {
					continue
				}
				for _, c := range d.cands {
					cover[c.vi] += d.need
				}
			}
			bestIx := -1
			bestEff := 0.0
			for vi, v := range a.nodes {
				if a.isPreferred(n, vi) || cover[vi] <= 0 {
					continue
				}
				eff := math.Min(cover[vi], a.caps[vi]-claimed[vi])
				if eff > bestEff || (eff == bestEff && bestIx != -1 && v < a.nodes[bestIx]) {
					bestIx, bestEff = vi, eff
				}
			}
			if bestIx == -1 || bestEff <= 0 {
				break // no remaining useful site for this dataset
			}
			a.sites[n*len(a.nodes)+bestIx] |= sitePreferred
			statProactiveSites.Inc()
			// Mark demands covered only up to the node's remaining
			// capacity budget, smallest-need first (serves the most
			// queries per GHz); the rest stay uncovered so later slots
			// are spent where capacity actually exists.
			budget := a.caps[bestIx] - claimed[bestIx]
			feasible = feasible[:0]
			for i, d := range demands {
				if covered[i] {
					continue
				}
				if _, ok := slices.BinarySearchFunc(d.cands, int32(bestIx), func(c cand, vi int32) int {
					return cmp.Compare(c.vi, vi)
				}); ok {
					feasible = append(feasible, i)
				}
			}
			slices.SortFunc(feasible, func(x, y int) int {
				if demands[x].need != demands[y].need {
					return cmp.Compare(demands[x].need, demands[y].need)
				}
				return cmp.Compare(x, y)
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

// thetaAt is the capacity price of the node at index vi:
// (c^u − 1)/(c − 1) on utilization u.
func (a *ascent) thetaAt(vi int) float64 {
	cap := a.caps[vi]
	if cap <= 0 {
		return math.Inf(1)
	}
	u := (cap - a.avail[vi]) / cap
	return (math.Pow(a.base, u) - 1) / (a.base - 1)
}

// planDemand prices serving demand d at each of its candidates and returns
// the cheapest feasible option. sc carries tentative per-node load and
// tentative replica openings from the bundle's earlier demands.
//
// The same pass yields what the admission loop steers by. bound is the
// cheapest option with the bundle's earlier demands taken out of the picture:
// every node with room for d alone, opening priced off the committed replica
// count (not at all where an earlier demand of the same dataset might have
// opened the replica). That set contains the pick's and prices nothing above
// what the pick paid, so bound ≤ the pick's cost; and since θ only rises,
// room only shrinks and the replica count only grows, a later pass returns a
// bound no lower — unless a replica of the dataset was opened in between,
// which zeroes the opening price where it landed. The pick's own cost is no
// such bound: a price rise that moves an earlier demand off a node frees it
// for this one. (All of this leans on θ rising with use: math.Pow is monotone
// in its exponent over the steps a commit takes, which move a node's
// utilization by a need over a capacity, not by an ulp.) secure reports a
// candidate that stays feasible whatever the earlier demands take: room for
// all their needs on top of d's, and a replica there or slots left after
// every earlier opening.
func (a *ascent) planDemand(deadline float64, d *demand, sc *scratch) (best pairCost, bound float64, secure, found bool) {
	need := d.need
	maxRep := a.p.MaxReplicas
	sites := a.sites[d.ds*len(a.nodes):][:len(a.nodes)]
	extraOpen := sc.extraOpen[d.ds*len(a.nodes):][:len(a.nodes)]
	repCount := a.repCount[d.ds]
	openCount := repCount + sc.openCount[d.ds]
	// The opening price off the committed count and off the tentative one.
	openPrice := a.repW * d.size * float64(repCount+1) / float64(maxRep)
	tentPrice := a.repW * d.size * float64(openCount+1) / float64(maxRep)
	if d.earlierSame > 0 {
		openPrice = 0
	}
	canOpenAnyway := repCount+d.earlierSame < maxRep

	inf := math.Inf(1)
	best = pairCost{cost: inf}
	bound = inf
	for _, c := range d.cands {
		vi := int(c.vi)
		priced := need*a.theta[vi] + d.sizeW*(c.delay/deadline)
		site := sites[vi]
		loose := priced
		if site&siteReplica == 0 {
			if repCount >= maxRep { // constraint (5): µ infinite
				continue
			}
			if site == 0 {
				loose += openPrice
			}
		}
		room := a.avail[vi]
		if need > room+1e-9 { // constraint (2), nothing tentative
			continue
		}
		if loose < bound {
			bound = loose
		}
		// θ = +Inf on a zero-capacity node, and 0·Inf is NaN: neither is ever
		// the pick, so neither secures the demand.
		if !secure && priced < inf && (site&siteReplica != 0 || canOpenAnyway) && need <= room-d.earlierNeed+1e-9 {
			secure = true
		}

		if need > room-sc.extraUse[vi]+1e-9 { // constraint (2)
			continue
		}
		open := false
		repPrice := 0.0
		if site&siteReplica == 0 && !extraOpen[vi] {
			if openCount >= maxRep { // constraint (5): µ infinite
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
			best = pairCost{node: v, vi: vi, cost: cost, delay: c.delay, open: open}
			found = true
		}
	}
	return best, bound, secure, found
}

// planBundle prices query qi's full bundle into its bundle record. Demands
// are placed one at a time against tentative capacity (tracked in a.sc) so
// that two demands of the same query cannot both count the same free
// capacity. It reports whether the bundle can be placed.
func (a *ascent) planBundle(qi int) bool {
	statBundlesPriced.Inc()
	sc := &a.sc
	sc.reset()
	b := &a.bundles[qi]
	b.plans++
	b.cost, b.value, b.bound = 0, 0, 0
	// cost/value has a monotone bound only while value is fixed; a partial
	// plan's value shrinks with feasibility, so under PartialAdmission no
	// bundle is ever secure and the admission loop plans them all every round.
	b.secure = !a.opt.PartialAdmission
	for di := range b.demands {
		d := &b.demands[di]
		pick, bound, secure, ok := a.planDemand(b.deadline, d, sc)
		if !ok {
			if !a.opt.PartialAdmission {
				return false
			}
			b.picks[di] = pairCost{node: -1}
			continue
		}
		b.cost += pick.cost
		b.value += d.size
		b.bound += bound
		b.secure = b.secure && secure
		b.picks[di] = pick
		vi := pick.vi
		if sc.extraUse[vi] == 0 {
			sc.usedNodes = append(sc.usedNodes, vi)
		}
		sc.extraUse[vi] += d.need
		if pick.open {
			fi := d.ds*len(a.nodes) + vi
			if !sc.extraOpen[fi] {
				sc.extraOpen[fi] = true
				sc.openFlat = append(sc.openFlat, fi)
				sc.openCount[d.ds]++
				if sc.openCount[d.ds] == 1 {
					sc.openDatasets = append(sc.openDatasets, d.ds)
				}
			}
		}
	}
	return b.value != 0 // nothing placeable even partially
}

// commit applies query qi's plan: allocates capacity, re-prices the nodes it
// loaded, opens replicas (in the solution and in the mirror), records the
// admission.
func (a *ascent) commit(qi int) {
	q := &a.p.Queries[qi]
	b := &a.bundles[qi]
	b.done = true
	as := a.assigned[:0]
	a.opened, a.loaded = a.opened[:0], a.loaded[:0]
	for di, pick := range b.picks {
		if pick.node < 0 {
			continue // infeasible demand under PartialAdmission
		}
		ds, need := b.demands[di].ds, b.demands[di].need
		vi := pick.vi
		a.loaded = append(a.loaded, vi)
		a.avail[vi] -= need
		if a.avail[vi] < 0 {
			a.avail[vi] = 0
		}
		a.theta[vi] = a.thetaAt(vi)
		a.noteUse(vi, need)
		if fi := ds*len(a.nodes) + vi; a.sites[fi]&siteReplica == 0 {
			a.sites[fi] |= siteReplica
			a.repCount[ds]++
			a.opened = append(a.opened, ds)
			a.sol.AddReplica(workload.DatasetID(ds), pick.node)
		}
		as = append(as, placement.Assignment{Query: q.ID, Dataset: workload.DatasetID(ds), Node: pick.node})
	}
	a.assigned = as
	a.sol.Admit(q.ID, as)
	a.rounds++
	statAdmitted.Inc()
	a.publishUtil()
	a.observeCommit(b)
	a.emitAdmit(qi)
}

// reject records query qi as permanently infeasible.
func (a *ascent) reject(qi int) {
	a.bundles[qi].done = true
	a.rejected++
	statRejected.Inc()
	a.emitReject(qi, a.rounds+1)
}

// run executes the dual ascent to exhaustion and checks what it produced.
func run(p *placement.Problem, opt Options, algo string) (*Result, error) {
	res := ascend(p, opt, algo)
	if !opt.PartialAdmission {
		if err := res.Solution.Validate(p); err != nil {
			return nil, fmt.Errorf("core: produced infeasible solution: %w", err)
		}
	}
	return res, nil
}

func ascend(p *placement.Problem, opt Options, algo string) *Result {
	a := newAscent(p, opt)
	a.beginTrace(algo)
	if !opt.NoProactivePlacement {
		start := instrument.Mono()
		a.proactivePlace()
		elapsed := instrument.Mono() - start
		timerProactive.Observe(elapsed)
		a.emitPhase("proactive", elapsed)
	}
	ascentStart := instrument.Mono()
	if opt.ArbitraryOrder {
		a.admitInOrder()
	} else {
		for a.admitRound() {
		}
	}
	ascentElapsed := instrument.Mono() - ascentStart
	timerAdmission.Observe(ascentElapsed)
	a.emitPhase("admission", ascentElapsed)
	histAscentRounds.Observe(float64(a.rounds))
	a.endTrace()

	res := &Result{
		Solution:       a.sol,
		Rounds:         a.rounds,
		Rejected:       a.rejected,
		FinalTheta:     make(map[graph.NodeID]float64, len(a.nodes)),
		PreferredSites: make(map[workload.DatasetID][]graph.NodeID),
	}
	for vi, v := range a.nodes {
		res.FinalTheta[v] = a.theta[vi]
	}
	for ds := range a.p.Datasets {
		for vi, v := range a.nodes { // ascending node ID
			if a.isPreferred(ds, vi) {
				n := workload.DatasetID(ds)
				res.PreferredSites[n] = append(res.PreferredSites[n], v)
			}
		}
	}
	return res
}
