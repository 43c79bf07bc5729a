// The admission fast path: per-(query, demand) feasibility tables
// precomputed at engine construction so Offer prices an arrival with array
// scans — no Dijkstra, no map allocation, no per-candidate delay model
// evaluation. The tables exist because everything the pricing loop consults
// except load and liveness is static for the life of the engine: the
// topology is immutable, EvalDelay is a pure function of (query, dataset,
// node), the deadline and the replica-open price seeds are fixed per demand,
// and the preferred sites are chosen before the tables are built. Failover
// repair prices off the same tables (failover.go): there is one pricing path.
//
// Building them is most of what NewEngine costs, so the build is kept to its
// arithmetic: each (demand, node) delay is evaluated once, straight off the
// home's delay row, into a per-worker scratch, and feeds all three things a
// table keeps (the admission set, the classification set, the closest
// finite-delay node); the sets are counted before they are allocated, one
// exact-size array per query for each kind; each admission set is put into
// the delay order pickFast's early exit stands on by sorting integer keys and
// one exact insertion pass; and queries are built on every core (newFastPath,
// queryTables, fillTable). Every table exists when NewEngine returns — the
// first Offer pays nothing.
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
	"math/bits"
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
	// preferred marks the sites core's proactive phase chose from the
	// forecast (NewEngine): a replica opens there at zero µ price, in
	// admission and in repair alike.
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
	// (ties by node ID). pickFast's early exit depends on the order.
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

// newFastPath materializes the tables: the per-node capacity bounds, then
// one table per (query, demand). Queries are independent and each writes only
// its own perQuery slot, so they are built on every core, each worker reusing
// one tableScratch; the totals are summed once all are in.
func newFastPath(e *Engine) *fastPath {
	t := e.p.Cloud.Topology()
	n := t.Graph.NumNodes()
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
	compute := e.p.Cloud.ComputeNodes()
	procDelay := make([]float64, len(compute)) // d(v), by position in compute
	for i, v := range compute {
		capGHz := e.p.Cloud.Capacity(v)
		f.capMaxU[v] = capGHz * maxU
		f.capEps[v] = capGHz*maxU + 1e-9
		procDelay[i] = e.p.Cloud.ProcDelayPerGB(v)
	}
	par.DoWith(len(e.p.Queries), func() *tableScratch { return &tableScratch{} }, func(s *tableScratch, qi int) {
		f.perQuery[qi] = e.queryTables(workload.QueryID(qi), procDelay, s)
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

// tableScratch is what one table-building worker reuses from query to
// query: every delay of the query being built, its tables' sizes, and one
// table's sort keys.
type tableScratch struct {
	delays []float64 // delays[di*C+i]: demand di's delay at the i-th compute node
	sizes  [][2]int  // sizes[di]: demand di's admission and classification set sizes
	keys   []uint64
}

// queryTables builds the tables of query qid's demands. Each compute node's
// delay is evaluated once per demand, into s, and feeds the closest
// finite-delay node, the classification set (MeetsDeadline's ε-tolerant
// predicate) and the admission set (the reference scan's strict one). The
// sets are counted before anything is allocated, so each query's admission
// and classification entries are cut from one exact-size array each.
func (e *Engine) queryTables(qid workload.QueryID, procDelay []float64, s *tableScratch) []fpDemand {
	q := &e.p.Queries[qid]
	compute := e.p.Cloud.ComputeNodes()
	nc := len(compute)
	deadline := q.DeadlineSec
	s.delays = slices.Grow(s.delays[:0], len(q.Demands)*nc)[:len(q.Demands)*nc]
	s.sizes = slices.Grow(s.sizes[:0], len(q.Demands))[:len(q.Demands)]
	demands := make([]fpDemand, len(q.Demands))
	totalCands, totalClass := 0, 0
	for di, dm := range q.Demands {
		d := &demands[di]
		*d = fpDemand{
			dataset:         dm.Dataset,
			need:            e.p.ComputeNeed(qid, dm.Dataset),
			size25:          0.25 * e.p.Datasets[dm.Dataset].SizeGB,
			bestFinite:      -1,
			bestFiniteDelay: math.Inf(1),
		}
		delays := e.p.DemandDelays(qid, dm.Dataset, procDelay)
		row := s.delays[di*nc : (di+1)*nc]
		cands, class := 0, 0
		for i, v := range compute {
			delay := delays.At(i)
			row[i] = delay
			if !math.IsInf(delay, 1) && delay < d.bestFiniteDelay {
				d.bestFinite, d.bestFiniteDelay = v, delay
			}
			if delay <= deadline+1e-12 {
				class++
			}
			if delay <= deadline { // NaN fails too: the sort needs comparable delays
				cands++
			}
		}
		s.sizes[di] = [2]int{cands, class}
		totalCands += cands
		totalClass += class
	}
	candArena := make([]fpCand, totalCands)
	classArena := make([]fpClassCand, totalClass)
	for di := range demands {
		d := &demands[di]
		if n := s.sizes[di][0]; n > 0 {
			d.cands, candArena = candArena[:n:n], candArena[n:]
		}
		if n := s.sizes[di][1]; n > 0 {
			d.class, classArena = classArena[:n:n], classArena[n:]
		}
		e.fillTable(d, deadline, s.delays[di*nc:(di+1)*nc], s)
	}
	return demands
}

// fillTable writes d's classification set, in ascending node order, and its
// admission set, in (delay, node) order — the order pickFast's early exit
// relies on — from row, the demand's delay at each compute node. Nodes are
// distinct and admitted delays are never NaN, so (delay, node) is a total
// order and the result does not depend on how it is reached.
//
// The admission set is ordered through integer keys: a delay's bits with the
// low bits replaced by the node's position in ComputeNodes. Finite
// non-negative floats order as their bits do, so the keys sort the
// candidates by delay up to those low bits, and among delays equal after the
// truncation by position. One insertion pass with the exact comparison then
// moves the few entries the truncation misordered. Insertion sort is a
// complete sort on its own, so the result is exact whatever the keys did
// (a negative or infinite delay only costs it time); the key sort only makes
// its input nearly sorted. TestFastPathTablesMatchReference holds it to the
// comparison sort it replaced.
func (e *Engine) fillTable(d *fpDemand, deadline float64, row []float64, s *tableScratch) {
	compute := e.p.Cloud.ComputeNodes()
	size := e.p.Datasets[d.dataset].SizeGB
	preferred := e.preferredSites[d.dataset]
	mask := uint64(1)<<bits.Len(uint(max(len(compute)-1, 0))) - 1
	keys := s.keys[:0]
	k := 0
	for i, delay := range row {
		if delay <= deadline+1e-12 {
			d.class[k] = fpClassCand{node: compute[i], delay: delay}
			k++
		}
		if delay <= deadline {
			keys = append(keys, math.Float64bits(delay)&^mask|uint64(i))
		}
	}
	slices.Sort(keys)
	for j, key := range keys {
		v, delay := compute[key&mask], row[key&mask]
		d.cands[j] = fpCand{
			node:      v,
			delay:     delay,
			delayCost: delayPriceWeight * size * (delay / deadline),
			preferred: slices.Contains(preferred, v),
		}
	}
	c := d.cands
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i
		for ; j > 0 && (x.delay < c[j-1].delay || x.delay == c[j-1].delay && x.node < c[j-1].node); j-- {
			c[j] = c[j-1]
		}
		c[j] = x
	}
	s.keys = keys
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
// whose delay term alone exceeds the best price so far, and no candidate at
// or after it can win. A candidate's price is fl(fl(need·θ + delayCost) +
// rep) with need·θ ≥ 0 (θ is (base^u − 1)/(base − 1) for u ≥ 0, giveBack
// clamps load at zero) and rep ≥ 0, and rounding is monotone, so
// fl(a + b) ≥ b for a ≥ 0: price ≥ delayCost. delayCost is w·size·(delay /
// deadline) with w·size ≥ 0 and deadline > 0, IEEE division and
// multiplication are monotone, and fillTable orders it by (delay, node), so
// delayCost never decreases along the table. Every later candidate
// therefore prices above bestCost and neither beats it nor ties it. The test
// is strict: a candidate whose delay term equals bestCost can still tie it
// at a lower node ID and must be priced.
func (e *Engine) pickFast(d *fpDemand, reps []graph.NodeID, capBound []float64, s *fpScratch) (graph.NodeID, bool) {
	f := e.fast
	openCount := len(reps) + s.openCountFor(d.dataset)
	kBound := e.p.MaxReplicas
	var best graph.NodeID = -1
	bestCost := math.Inf(1)
	for i := range d.cands {
		c := &d.cands[i]
		if c.delayCost > bestCost {
			break
		}
		v := c.node
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
		reps := e.sol.Replicas[d.dataset]
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
