// The admission fast path: per-(query, demand) feasibility tables
// precomputed at engine construction so Offer prices an arrival with array
// scans — no Dijkstra, no map allocation, no per-candidate delay model
// evaluation. The tables exist because everything the pricing loop consults
// except load and liveness is static for the life of the engine: the
// topology is immutable, EvalDelay is a pure function of (query, dataset,
// node), the deadline and the replica-open price seeds are fixed per demand,
// and the preferred-site set is frozen after prePlace.
//
// Building them is most of what NewEngine costs, so the build is kept to its
// arithmetic: each (demand, node) delay is evaluated once, straight off the
// topology's delay matrix, and feeds all three things a table keeps (the
// admission set, the classification set, the closest finite-delay node); each
// admission set is sorted once, by a typed comparison; and queries are built
// on every core (newFastPath, demandTable). Every table exists when NewEngine
// returns — the first Offer pays nothing.
//
// What stays dynamic is mirrored, not recomputed:
//
//   - instantaneous load lives in the sharded atomic ledger (capshard.go)
//     and is read per candidate;
//   - node liveness is mirrored into a dense []bool, fenced by
//     cluster.Liveness.Gen(): every Offer/classification compares the
//     tracked generation before consulting the mirror and refreshes it when
//     a crash, restore, or external liveness edit moved it. The fence is
//     what makes "a decision never admits through a stale table" a checked
//     property (TestFastPathStaleTableFuzz) rather than a hope;
//   - θ(v) is cached per node and invalidated by the engine's centralized
//     used-mutation helpers, so repeated candidates of one offer pay one
//     math.Pow each at most.
//
// Byte-identity contract: the tables are the engine's only pricing path, and
// every decision and rejection classification they produce equals what the
// reference scan in reference_test.go (the original per-offer search through
// the delay model, kept as test code) produces at the same engine state —
// hence the same journal record and trace event. It is a tested property, not
// a runtime mode. The pricing expressions below therefore reproduce the
// reference's float arithmetic with the same associativity (precomputed
// factors are the exact subexpressions the scan evaluates, never algebraic
// rearrangements), and ties resolve to the lowest node ID exactly as the
// reference's ascending scan does (TestFastPathEquivalence's tie case).
package online

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/par"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

var (
	statFastBuilds    = instrument.NewCounter("online.fastpath_table_builds")
	statFastOffers    = instrument.NewCounter("online.fastpath_offers")
	statFastRefreshes = instrument.NewCounter("online.fastpath_refreshes")
)

// fpCand is one pricing candidate: a node whose evaluation delay meets the
// demand's deadline under the strict admission predicate (delay ≤ deadline,
// no epsilon — exactly the reference scan's gate).
type fpCand struct {
	node  graph.NodeID
	delay float64
	// delayCost is the precomputed deadline-slack price term
	// w·size·(delay/deadline), evaluated with the reference scan's exact
	// expression shape.
	delayCost float64
	// preferred marks forecast-derived proactive sites (zero µ price).
	preferred bool
}

// fpClassCand is one classification candidate: a node passing the
// ε-tolerant MeetsDeadline predicate (classification and admission use
// different feasibility predicates; the tables keep both sets).
type fpClassCand struct {
	node  graph.NodeID
	delay float64
}

// fpDemand is the precomputed table for one (query, demand) pair.
type fpDemand struct {
	dataset workload.DatasetID
	// need is ComputeNeed(q, dataset); size25 seeds the replica-open price
	// (0.25·size, the exact subexpression the reference evaluates first).
	need   float64
	size25 float64
	// cands is the admission candidate set, sorted by ascending delay
	// (ties by node ID) — the delay-sorted table the scan walks.
	cands []fpCand
	// class is the classification candidate set in ascending node order
	// (ClassifyRejection scans nodes ascending; order is part of its
	// determinism contract).
	class []fpClassCand
	// bestFinite names the finite-delay node closest to the deadline, the
	// locus a deadline rejection reports; -1 when every delay is infinite.
	bestFinite      graph.NodeID
	bestFiniteDelay float64
}

// fpScratch is the per-offer planning state, reused across offers so the
// fast path allocates nothing (TestFastPathZeroAlloc asserts this). The
// slices replace the reference scan's tentative/tentOpen maps; bundles are
// small (a handful of demands), so linear scans beat hashing.
type fpScratch struct {
	tentNode []graph.NodeID
	tentAmt  []float64
	openDs   []workload.DatasetID
	openNode []graph.NodeID
	assign   []placement.Assignment
}

func (s *fpScratch) reset() {
	s.tentNode = s.tentNode[:0]
	s.tentAmt = s.tentAmt[:0]
	s.openDs = s.openDs[:0]
	s.openNode = s.openNode[:0]
	s.assign = s.assign[:0]
}

// tentFor returns the capacity already tentatively claimed on v by earlier
// demands of the offer being planned (zero when none, like a map miss).
func (s *fpScratch) tentFor(v graph.NodeID) float64 {
	for i, n := range s.tentNode {
		if n == v {
			return s.tentAmt[i]
		}
	}
	return 0
}

func (s *fpScratch) addTent(v graph.NodeID, need float64) {
	for i, n := range s.tentNode {
		if n == v {
			s.tentAmt[i] += need
			return
		}
	}
	s.tentNode = append(s.tentNode, v)
	s.tentAmt = append(s.tentAmt, need)
}

// openCountFor counts distinct replica opens planned for ds so far.
func (s *fpScratch) openCountFor(ds workload.DatasetID) int {
	c := 0
	for _, d := range s.openDs {
		if d == ds {
			c++
		}
	}
	return c
}

func (s *fpScratch) openHas(ds workload.DatasetID, v graph.NodeID) bool {
	for i, d := range s.openDs {
		if d == ds && s.openNode[i] == v {
			return true
		}
	}
	return false
}

// fastPath holds the engine's precomputed tables plus the fenced dynamic
// mirrors. The epoch loop is the single writer; the stats fields observers
// read lock-free are atomics.
type fastPath struct {
	perQuery [][]fpDemand

	// capEps[v] = Capacity(v)·maxU + 1e-9, the admission headroom bound;
	// capMaxU[v] = Capacity(v)·maxU, the classification Avail minuend.
	// Both are the exact subexpressions the reference computes inline.
	capEps  []float64
	capMaxU []float64

	// down mirrors the liveness tracker's crashed set densely; liveGen is
	// the generation the mirror was built at (the epoch fence), liveDirty
	// forces a rebuild regardless of generation (a tracker was swapped or
	// state was bulk-loaded).
	down      []bool
	liveGen   atomic.Uint64
	liveDirty bool

	scr fpScratch

	tables     int
	candidates int
	offers     atomic.Uint64
	refreshes  atomic.Uint64
}

// FastPathStats is the fast path's observability rollup, served lock-free
// on /state (table sizes are immutable, counters are atomics, and the shard
// sums read the capacity ledger's atomic bits).
type FastPathStats struct {
	Tables     int        `json:"tables"`
	Candidates int        `json:"candidates"`
	LiveGen    uint64     `json:"live_gen"`
	Refreshes  uint64     `json:"refreshes"`
	Offers     uint64     `json:"offers"`
	Shards     []ShardUse `json:"shards,omitempty"`
}

// FastPathStats reports the fast path's table and fence counters. Safe to
// call concurrently with the epoch loop.
func (e *Engine) FastPathStats() FastPathStats {
	return FastPathStats{
		Tables:     e.fast.tables,
		Candidates: e.fast.candidates,
		LiveGen:    e.fast.liveGen.Load(),
		Refreshes:  e.fast.refreshes.Load(),
		Offers:     e.fast.offers.Load(),
		Shards:     e.used.shardUse(),
	}
}

// newFastPath materializes the tables: the per-node capacity bounds, then
// one table per (query, demand). Queries are independent and each writes only
// its own perQuery slot, so they are built on every core; the totals are
// summed once all are in.
func newFastPath(e *Engine) *fastPath {
	t := e.p.Cloud.Topology()
	n := t.Graph.NumNodes()
	f := &fastPath{
		perQuery: make([][]fpDemand, len(e.p.Queries)),
		capEps:   make([]float64, n),
		capMaxU:  make([]float64, n),
		down:     make([]bool, n),
	}
	maxU := e.opt.maxUtil()
	compute := e.p.Cloud.ComputeNodes()
	procDelay := make([]float64, len(compute)) // d(v), by position in compute
	for i, v := range compute {
		capGHz := e.p.Cloud.Capacity(v)
		f.capMaxU[v] = capGHz * maxU
		f.capEps[v] = capGHz*maxU + 1e-9
		procDelay[i] = e.p.Cloud.ProcDelayPerGB(v)
	}
	par.Do(len(e.p.Queries), func(qi int) {
		q := &e.p.Queries[qi]
		demands := make([]fpDemand, len(q.Demands))
		for di, dm := range q.Demands {
			demands[di] = e.demandTable(workload.QueryID(qi), dm.Dataset, procDelay)
		}
		f.perQuery[qi] = demands
	})
	maxDemands := 0
	for _, demands := range f.perQuery {
		maxDemands = max(maxDemands, len(demands))
		f.tables += len(demands)
		for di := range demands {
			f.candidates += len(demands[di].cands)
		}
	}
	f.scr = fpScratch{
		tentNode: make([]graph.NodeID, 0, maxDemands),
		tentAmt:  make([]float64, 0, maxDemands),
		openDs:   make([]workload.DatasetID, 0, maxDemands),
		openNode: make([]graph.NodeID, 0, maxDemands),
		assign:   make([]placement.Assignment, 0, maxDemands),
	}
	statFastBuilds.Inc()
	return f
}

// demandTable builds the table of one (query, demand) pair in one pass over
// the compute nodes, ascending: each node's delay is evaluated once and feeds
// the closest finite-delay node, the classification set (MeetsDeadline's
// ε-tolerant predicate) and the admission set (the reference scan's strict
// one). The admission set is then sorted into delay order; nodes are distinct,
// so (delay, node) is a total order and the result does not depend on the
// order the pass visited them in.
func (e *Engine) demandTable(qid workload.QueryID, ds workload.DatasetID, procDelay []float64) fpDemand {
	size := e.p.Datasets[ds].SizeGB
	deadline := e.p.Queries[qid].DeadlineSec
	delays := e.p.DemandDelays(qid, ds, procDelay)
	preferred := e.preferredSites[ds]
	d := fpDemand{
		dataset:         ds,
		need:            e.p.ComputeNeed(qid, ds),
		size25:          0.25 * size,
		bestFinite:      -1,
		bestFiniteDelay: math.Inf(1),
	}
	for i, v := range e.p.Cloud.ComputeNodes() {
		delay := delays.At(i)
		if !math.IsInf(delay, 1) && delay < d.bestFiniteDelay {
			d.bestFinite, d.bestFiniteDelay = v, delay
		}
		if delay <= deadline+1e-12 {
			d.class = append(d.class, fpClassCand{node: v, delay: delay})
		}
		if delay > deadline {
			continue
		}
		d.cands = append(d.cands, fpCand{
			node:      v,
			delay:     delay,
			delayCost: delayPriceWeight * size * (delay / deadline),
			preferred: preferred[v],
		})
	}
	slices.SortFunc(d.cands, func(a, b fpCand) int {
		switch {
		case a.delay < b.delay:
			return -1
		case a.delay > b.delay:
			return 1
		}
		return cmp.Compare(a.node, b.node)
	})
	return d
}

// refresh is the epoch fence: a no-op while the liveness generation the
// mirror was built at still matches (one atomic load and one comparison),
// a full dense rebuild when a crash, restore, external liveness edit, or
// bulk state load moved it. Called at the top of every fast planning and
// classification pass, so no decision reads the mirror across a stale
// generation.
func (f *fastPath) refresh(e *Engine) {
	if e.live == nil {
		return
	}
	g := e.live.Gen()
	if !f.liveDirty && g == f.liveGen.Load() {
		return
	}
	for i := range f.down {
		f.down[i] = false
	}
	for _, v := range e.live.DownNodes() {
		f.down[v] = true
	}
	f.liveGen.Store(g)
	f.liveDirty = false
	f.refreshes.Add(1)
	statFastRefreshes.Inc()
}

// invalidate forces the next refresh to rebuild the mirror even on a
// matching generation — loadState bulk-replays downs into the tracker.
func (f *fastPath) invalidate() { f.liveDirty = true }

// planFast plans one arrival against the precomputed tables and returns
// decisions bit-identical to the reference scan's at the same state.
// Rejection planning allocates nothing; an admission allocates only the
// returned assignment slice the decision keeps.
func (e *Engine) planFast(qid workload.QueryID) (bool, []placement.Assignment) {
	f := e.fast
	f.refresh(e)
	f.offers.Add(1)
	statFastOffers.Inc()
	s := &f.scr
	s.reset()
	demands := f.perQuery[qid]
	for di := range demands {
		d := &demands[di]
		v, ok := e.pickFast(d, s)
		if !ok {
			return false, nil
		}
		s.addTent(v, d.need)
		if !e.sol.HasReplica(d.dataset, v) && !s.openHas(d.dataset, v) {
			s.openDs = append(s.openDs, d.dataset)
			s.openNode = append(s.openNode, v)
		}
		s.assign = append(s.assign, placement.Assignment{Query: qid, Dataset: d.dataset, Node: v})
	}
	if len(s.assign) == 0 {
		return true, nil
	}
	as := make([]placement.Assignment, len(s.assign))
	copy(as, s.assign)
	return true, as
}

// pickFast selects the cheapest feasible node for one demand from its
// precomputed candidate table. Every float expression mirrors the reference
// scan's associativity exactly, and the explicit lowest-node tie-break
// reproduces the ascending scan's strict-< argmin (the table is in delay
// order, not node order), so both select identical nodes at identical costs.
func (e *Engine) pickFast(d *fpDemand, s *fpScratch) (graph.NodeID, bool) {
	f := e.fast
	openCount := e.sol.ReplicaCount(d.dataset) + s.openCountFor(d.dataset)
	kBound := e.p.MaxReplicas
	var best graph.NodeID = -1
	bestCost := math.Inf(1)
	for i := range d.cands {
		c := &d.cands[i]
		v := c.node
		if f.down[v] {
			continue
		}
		if e.usedGHz(v)+s.tentFor(v)+d.need > f.capEps[v] {
			continue
		}
		rep := 0.0
		if !e.sol.HasReplica(d.dataset, v) && !s.openHas(d.dataset, v) {
			if openCount >= kBound {
				continue
			}
			if !c.preferred {
				rep = d.size25 * float64(openCount+1) / float64(kBound)
			}
		}
		cost := d.need*e.theta(v) + c.delayCost + rep
		if cost < bestCost || (cost == bestCost && v < best) {
			best, bestCost = v, cost
		}
	}
	return best, best != -1
}

// classifyFast is ClassifyRejection over the precomputed classification
// tables: same reason, same locus, same tie-breaks as the generic scan in
// internal/placement, with the static portions (the ε-tolerant feasible
// set in ascending node order, the closest finite-delay node) read from the
// table and only load and liveness consulted live.
func (e *Engine) classifyFast(q workload.QueryID) (instrument.Reason, workload.DatasetID, graph.NodeID) {
	f := e.fast
	f.refresh(e)
	kRepl := e.p.MaxReplicas
	for di := range f.perQuery[q] {
		d := &f.perQuery[q][di]
		crashNode := graph.NodeID(-1)
		capNode := graph.NodeID(-1)
		capBest := math.Inf(-1)
		kNode := graph.NodeID(-1)
		kBestDelay := math.Inf(1)
		feasible, servable, capacityOK := false, false, false
		for i := range d.class {
			cc := &d.class[i]
			v := cc.node
			if f.down[v] {
				if crashNode == -1 {
					crashNode = v
				}
				continue
			}
			feasible = true
			avail := f.capMaxU[v] - e.usedGHz(v)
			if avail > capBest {
				capNode, capBest = v, avail
			}
			if d.need > avail+1e-9 {
				continue
			}
			capacityOK = true
			if cc.delay < kBestDelay {
				kNode, kBestDelay = v, cc.delay
			}
			if e.sol.HasReplica(d.dataset, v) || e.sol.ReplicaCount(d.dataset) < kRepl {
				servable = true
				break
			}
		}
		switch {
		case servable:
			continue
		case !feasible && crashNode != -1:
			return instrument.ReasonNodeCrashed, d.dataset, crashNode
		case !feasible && d.bestFinite == -1:
			return instrument.ReasonDisconnected, d.dataset, -1
		case !feasible:
			return instrument.ReasonDeadline, d.dataset, d.bestFinite
		case !capacityOK:
			return instrument.ReasonCapacity, d.dataset, capNode
		default:
			return instrument.ReasonKBound, d.dataset, kNode
		}
	}
	return instrument.ReasonBundleInfeasible, -1, -1
}
