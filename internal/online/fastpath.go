// The admission fast path: per-(query, demand) feasibility tables read at
// engine construction so Offer prices an arrival with array scans — no
// Dijkstra, no map allocation, no per-candidate delay model evaluation. The
// tables exist because everything the pricing loop consults except load and
// liveness is static for the life of the engine: the topology is immutable,
// EvalDelay is a pure function of (query, dataset, node), the deadline and
// the replica-open price seeds are fixed per demand, and the preferred sites
// are chosen before the tables are read. Failover repair prices off the same
// tables (failover.go): there is one pricing path.
//
// The tables are the Problem's (placement.Problem.CandidateTables), shared
// with the solver and built once by whichever reads the Problem first;
// newFastPath adds what is the engine's own — the compute need, the price
// factors, the preferred sites — and every table exists when NewEngine
// returns: the first Offer pays nothing.
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
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

var (
	statFastBuilds    = instrument.NewCounter("online.fastpath_table_builds")
	statFastOffers    = instrument.NewCounter("online.fastpath_offers")
	statFastRefreshes = instrument.NewCounter("online.fastpath_refreshes")
)

// fpDemand is the engine's table for one (query, demand) pair.
type fpDemand struct {
	dataset workload.DatasetID
	// need is ComputeNeed(q, dataset); size25 seeds the replica-open price
	// (0.25·size, the exact subexpression the reference evaluates first);
	// sizeW is w·size: sizeW·slack is the reference's w·size·(delay/deadline).
	need   float64
	size25 float64
	sizeW  float64
	// The Problem's table: classification reads its Feasible set, pricing
	// its Admissible prefix (exactly the reference scan's gate).
	*placement.CandidateTable
	// preferred marks, by node, the sites core's proactive phase chose for
	// the dataset from the forecast (NewEngine): a replica opens there at
	// zero µ price, in admission and in repair alike.
	preferred []bool
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

// noteOpen records serving ds from v as a replica opening, unless ds is held
// at v (reps is its committed replica set) or already planned to open there,
// and reports whether it did.
func (s *fpScratch) noteOpen(ds workload.DatasetID, v graph.NodeID, reps []graph.NodeID) bool {
	if slices.Contains(reps, v) || s.openHas(ds, v) {
		return false
	}
	s.openDs = append(s.openDs, ds)
	s.openNode = append(s.openNode, v)
	return true
}

// fastPath holds the engine's precomputed tables plus the fenced dynamic
// mirrors. The epoch loop is the single writer; the stats fields observers
// read lock-free are atomics.
type fastPath struct {
	perQuery [][]fpDemand

	// capEps[v] = Capacity(v)·maxU + 1e-9, the admission headroom bound;
	// capMaxU[v] = Capacity(v)·maxU, the classification Avail minuend.
	// Both are the exact subexpressions the reference computes inline.
	// uncapped is +Inf at every node: the bound of a repair whose hold
	// already expired, which no load can exceed.
	capEps   []float64
	capMaxU  []float64
	uncapped []float64

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

// newFastPath materializes the tables: the per-node capacity bounds, the
// preferred-site sets, then one table per (query, demand) over the Problem's.
func newFastPath(e *Engine) *fastPath {
	n := e.p.Cloud.Topology().Graph.NumNodes()
	f := &fastPath{
		perQuery: make([][]fpDemand, len(e.p.Queries)),
		capEps:   make([]float64, n),
		capMaxU:  make([]float64, n),
		uncapped: make([]float64, n),
		down:     make([]bool, n),
	}
	for v := range f.uncapped {
		f.uncapped[v] = math.Inf(1)
	}
	maxU := e.opt.maxUtil()
	for _, v := range e.p.Cloud.ComputeNodes() {
		capGHz := e.p.Cloud.Capacity(v)
		f.capMaxU[v] = capGHz * maxU
		f.capEps[v] = capGHz*maxU + 1e-9
	}
	preferred := make([][]bool, len(e.p.Datasets))
	for ds := range preferred {
		preferred[ds] = make([]bool, n)
		for _, v := range e.preferredSites[workload.DatasetID(ds)] {
			preferred[ds][v] = true
		}
	}
	tables := e.p.CandidateTables()
	numDemands := 0
	for qi := range tables {
		numDemands += len(tables[qi])
	}
	slab := make([]fpDemand, numDemands)
	maxDemands := 0
	for qi := range e.p.Queries {
		q := &e.p.Queries[qi]
		demands := slab[:len(q.Demands):len(q.Demands)]
		slab = slab[len(q.Demands):]
		for di, dm := range q.Demands {
			tab := &tables[qi][di]
			size := e.p.Datasets[dm.Dataset].SizeGB
			demands[di] = fpDemand{
				dataset:        dm.Dataset,
				need:           e.p.ComputeNeed(workload.QueryID(qi), dm.Dataset),
				size25:         0.25 * size,
				sizeW:          delayPriceWeight * size,
				CandidateTable: tab,
				preferred:      preferred[dm.Dataset],
			}
			f.candidates += tab.Strict
		}
		f.perQuery[qi] = demands
		f.tables += len(demands)
		maxDemands = max(maxDemands, len(demands))
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

// table returns query q's first table for dataset n, the demand EvalDelay
// prices n by; q must demand n.
func (f *fastPath) table(q workload.QueryID, n workload.DatasetID) *fpDemand {
	demands := f.perQuery[q]
	for i := range demands {
		if demands[i].dataset == n {
			return &demands[i]
		}
	}
	panic(fmt.Sprintf("online: query %d does not demand dataset %d", q, n))
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
		reps := e.sol.Replicas[d.dataset]
		v, ok := e.pickFast(d, reps, f.capEps, s)
		if !ok {
			return false, nil
		}
		s.addTent(v, d.need)
		s.noteOpen(d.dataset, v, reps)
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
// precomputed candidate table; reps is the demand's dataset's committed
// replica set, read once by the caller, and capBound the per-node load bound
// (capEps; uncapped for a repair that needs no capacity). Admission and
// failover repair both price through it. Every float expression mirrors the
// reference scan's associativity exactly, and the explicit lowest-node
// tie-break reproduces the ascending scan's strict-< argmin (the table is in
// delay order, not node order), so both select identical nodes at identical
// costs.
//
// The delay order is load-bearing: the scan stops at the first candidate
// whose delay term alone exceeds the best price so far, exactly
// (placement.CandidateTable.Admissible): a price is fl(fl(need·θ +
// delayCost) + rep) with need·θ ≥ 0 (θ is (base^u − 1)/(base − 1) for u ≥ 0,
// giveBack clamps load at zero) and rep ≥ 0. The test is strict: a candidate
// whose delay term equals bestCost can still tie it at a lower node ID.
func (e *Engine) pickFast(d *fpDemand, reps []graph.NodeID, capBound []float64, s *fpScratch) (graph.NodeID, bool) {
	f := e.fast
	openCount := len(reps) + s.openCountFor(d.dataset)
	kBound := e.p.MaxReplicas
	var best graph.NodeID = -1
	bestCost := math.Inf(1)
	cands := d.Admissible()
	for i := range cands {
		c := &cands[i]
		delayCost := d.sizeW * c.Slack
		if delayCost > bestCost {
			break
		}
		v := graph.NodeID(c.Node)
		if f.down[v] {
			continue
		}
		if e.usedGHz(v)+s.tentFor(v)+d.need > capBound[v] {
			continue
		}
		rep := 0.0
		if !slices.Contains(reps, v) && !s.openHas(d.dataset, v) {
			if openCount >= kBound {
				continue
			}
			if !d.preferred[v] {
				rep = d.size25 * float64(openCount+1) / float64(kBound)
			}
		}
		cost := d.need*e.theta(v) + delayCost + rep
		if cost < bestCost || (cost == bestCost && v < best) {
			best, bestCost = v, cost
		}
	}
	return best, best != -1
}

// classifyFast is ClassifyRejection over the precomputed classification
// tables: same reason, same locus, same tie-breaks as the generic scan in
// internal/placement, with the static portions (the ε-tolerant feasible
// set, the closest finite-delay node) read from the table and only load and
// liveness consulted live.
//
// The generic scan walks the nodes in ascending order, so each locus is the
// lowest node among those that qualify best: the lowest crashed node, the
// node with the most room, the live node with room and the least finite
// delay. The table is in (delay, node) order, so the first live node with
// room found along it is that last locus as it stands (every delay in the set
// is finite, since NewProblem's deadlines are), and the other two break their
// ties to the lower node explicitly. Where the scan stops early, at a
// servable node, the demand reports no locus.
func (e *Engine) classifyFast(q workload.QueryID) (instrument.Reason, workload.DatasetID, graph.NodeID) {
	f := e.fast
	f.refresh(e)
	kRepl := e.p.MaxReplicas
	for di := range f.perQuery[q] {
		d := &f.perQuery[q][di]
		reps := e.sol.Replicas[d.dataset]
		crashNode := graph.NodeID(-1)
		capNode := graph.NodeID(-1)
		capBest := math.Inf(-1)
		kNode := graph.NodeID(-1)
		feasible, servable, capacityOK := false, false, false
		for i := range d.Feasible {
			v := graph.NodeID(d.Feasible[i].Node)
			if f.down[v] {
				if crashNode == -1 || v < crashNode {
					crashNode = v
				}
				continue
			}
			feasible = true
			avail := f.capMaxU[v] - e.usedGHz(v)
			if avail > capBest || avail == capBest && v < capNode {
				capNode, capBest = v, avail
			}
			if d.need > avail+1e-9 {
				continue
			}
			capacityOK = true
			if kNode == -1 {
				kNode = v
			}
			if len(reps) < kRepl || slices.Contains(reps, v) {
				servable = true
				break
			}
		}
		switch {
		case servable:
			continue
		case !feasible && crashNode != -1:
			return instrument.ReasonNodeCrashed, d.dataset, crashNode
		case !feasible && d.Closest == -1:
			return instrument.ReasonDisconnected, d.dataset, -1
		case !feasible:
			return instrument.ReasonDeadline, d.dataset, d.Closest
		case !capacityOK:
			return instrument.ReasonCapacity, d.dataset, capNode
		default:
			return instrument.ReasonKBound, d.dataset, kNode
		}
	}
	return instrument.ReasonBundleInfeasible, -1, -1
}
