// Failover repair for the online engine: when a node crashes it takes its
// replicas and its in-flight allocations with it. Crash releases the ledger
// state, then a repair loop re-serves every stranded assignment using the
// same instantaneous dual prices as admission — an existing surviving
// replica if one meets the deadline, otherwise a new replica within the
// freed K budget (re-replication priced like any lazy replica open, and
// re-synced from the origin when a consistency manager is attached).
// Queries that cannot be repaired are evicted: their admission is undone and
// their volume given back, which is exactly the degradation the ext-chaos
// experiment measures.
package online

import (
	"fmt"
	"math"
	"slices"

	"edgerep/internal/cluster"
	"edgerep/internal/consistency"
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

var (
	statCrashes   = instrument.NewCounter("online.node_crashes")
	statRepairs   = instrument.NewCounter("online.repairs")
	statEvictions = instrument.NewCounter("online.crash_evictions")
	statResyncs   = instrument.NewCounter("online.replica_resyncs")
)

// CrashReport summarizes one node failure and the repair that followed.
type CrashReport struct {
	Node graph.NodeID
	// LostReplicas is how many dataset replicas lived on the node.
	LostReplicas int
	// ReleasedGHz is the in-flight allocation the crash freed.
	ReleasedGHz float64
	// AffectedQueries had at least one assignment served by the node.
	AffectedQueries []workload.QueryID
	// Repaired counts assignments re-pointed at a surviving or new replica.
	Repaired int
	// NewReplicas counts repairs that had to open a replica (within K).
	NewReplicas int
	// Evicted lists queries no surviving node could serve in-deadline.
	Evicted []workload.QueryID
	// EvictedVolume is the demanded volume given back by evictions.
	EvictedVolume float64
	// ResyncGB and ResyncCostGBSec are the consistency cost of
	// re-replicating onto new replica nodes (zero without a manager).
	ResyncGB        float64
	ResyncCostGBSec float64
}

// AttachConsistency wires a consistency manager so failover repair accounts
// full re-replication traffic for every replica it opens.
func (e *Engine) AttachConsistency(m *consistency.Manager) { e.cons = m }

// Liveness returns the engine's tracker (creating it if needed).
func (e *Engine) Liveness() *cluster.Liveness {
	if e.live == nil {
		e.live = cluster.NewLiveness()
	}
	return e.live
}

// Restore marks a crashed node alive again. It comes back empty — replicas
// re-materialize only through admission or repair. The returned error is the
// journal's (durable engines only; nil otherwise).
func (e *Engine) Restore(v graph.NodeID) error {
	e.Liveness().MarkUp(v)
	return e.journalRestore(v)
}

// Crash processes the failure of node v at time atSec (non-decreasing, like
// Offer): the node's replicas and allocations are lost, every assignment it
// served is repaired onto a surviving node within the K bound or its query
// is evicted. The returned report is deterministic for a deterministic
// engine history.
func (e *Engine) Crash(atSec float64, v graph.NodeID) (CrashReport, error) {
	if atSec < e.now {
		return CrashReport{}, fmt.Errorf("online: crash at %.3fs before current time %.3fs", atSec, e.now)
	}
	e.now = atSec
	e.drainReleases()
	rep := CrashReport{Node: v}
	if !e.Liveness().MarkDown(v) {
		// Already down: a no-op, but journaled like any other crash input so
		// replay walks the exact same path.
		return rep, e.journalCrash(atSec, v, rep, 0)
	}
	statCrashes.Inc()

	// The node's replicas are gone.
	var lost []workload.DatasetID
	for n := range e.sol.Replicas {
		if e.sol.HasReplica(n, v) {
			lost = append(lost, n)
		}
	}
	slices.Sort(lost)
	for _, n := range lost {
		e.sol.RemoveReplica(n, v)
		if e.cons != nil {
			e.cons.RetireReplica(n, v)
		}
	}
	rep.LostReplicas = len(lost)

	// Its in-flight allocations are gone too; remember which (query,
	// dataset) holds were live so repair can move them.
	activeHold := make(map[workload.QueryID]map[workload.DatasetID]float64) // expiry times
	for _, r := range e.releases.extract(func(r release) bool { return r.node == v }) {
		rep.ReleasedGHz += r.amt
		m := activeHold[r.query]
		if m == nil {
			m = make(map[workload.DatasetID]float64)
			activeHold[r.query] = m
		}
		m[r.dataset] = r.at
	}
	e.setUsed(v, 0)

	// Every assignment served by v is stranded — including those of queries
	// whose hold already expired: the solution must stay replayable against
	// the ILP, so they are re-pointed (free) or their query is evicted.
	byQuery := make(map[workload.QueryID][]workload.DatasetID)
	for _, a := range e.sol.Assignments {
		if a.Node == v {
			byQuery[a.Query] = append(byQuery[a.Query], a.Dataset)
		}
	}
	affected := make([]workload.QueryID, 0, len(byQuery))
	for q := range byQuery {
		affected = append(affected, q)
	}
	slices.Sort(affected)
	rep.AffectedQueries = affected

	volLost := 0.0
	for _, q := range affected {
		volLost += e.p.Queries[q].DemandedVolume(e.p.Datasets)
	}
	e.emitCrash(v, volLost)

	// Repairs re-point assignments in one pass over the solution once every
	// affected query is planned, not one scan per repaired assignment. An
	// eviction in between removes only its own query's assignments, so the
	// order of the two does not matter.
	var moves []placement.Assignment
	for _, q := range affected {
		moves = e.repairQuery(q, byQuery[q], activeHold[q], &rep, moves)
	}
	e.sol.Reassign(moves...)
	return rep, e.journalCrash(atSec, v, rep, volLost)
}

// repairQuery re-serves query q's stranded datasets, or evicts it. The
// solution's assignments are not touched here: each repair is appended to
// reassign, which is returned for Crash to apply.
func (e *Engine) repairQuery(q workload.QueryID, datasets []workload.DatasetID,
	holds map[workload.DatasetID]float64, rep *CrashReport, reassign []placement.Assignment) []placement.Assignment {

	if e.opt.NoRepair {
		e.evict(q, rep)
		return reassign
	}
	slices.Sort(datasets)
	type move struct {
		dataset workload.DatasetID
		node    graph.NodeID
		fresh   bool
		expiry  float64
		active  bool
	}
	var moves []move
	// Plan all of the query's stranded datasets first (all-or-nothing, like
	// admission): tentative capacity keeps two datasets of one query from
	// both claiming the last GHz of a node.
	tentative := make(map[graph.NodeID]float64)
	tentOpen := make(map[workload.DatasetID]map[graph.NodeID]bool)
	for _, n := range datasets {
		expiry, active := holds[n]
		w, fresh, ok := e.pickRepairNode(q, n, active, tentative, tentOpen)
		if !ok {
			e.evict(q, rep)
			return reassign
		}
		if active {
			tentative[w] += e.p.ComputeNeed(q, n)
		}
		if fresh {
			m := tentOpen[n]
			if m == nil {
				m = make(map[graph.NodeID]bool)
				tentOpen[n] = m
			}
			m[w] = true
		}
		moves = append(moves, move{dataset: n, node: w, fresh: fresh, expiry: expiry, active: active})
	}
	for _, mv := range moves {
		if mv.fresh {
			e.sol.AddReplica(mv.dataset, mv.node)
			rep.NewReplicas++
			if e.cons != nil {
				if ev, err := e.cons.ResyncReplica(mv.dataset, mv.node); err == nil {
					rep.ResyncGB += ev.VolumeGB
					rep.ResyncCostGBSec += ev.CostGBSec
				}
			}
			statResyncs.Inc()
		}
		reassign = append(reassign, placement.Assignment{Query: q, Dataset: mv.dataset, Node: mv.node})
		if mv.active {
			need := e.p.ComputeNeed(q, mv.dataset)
			if u := e.addUsed(mv.node, need) / e.p.Cloud.Capacity(mv.node); u > e.peak {
				e.peak = u
			}
			e.releases.push(release{at: mv.expiry, node: mv.node, amt: need, query: q, dataset: mv.dataset})
		}
		rep.Repaired++
		statRepairs.Inc()
		e.emitRepair(q, mv.dataset, mv.node)
	}
	return reassign
}

// pickRepairNode selects the cheapest live node that can take over one
// stranded (query, dataset) under the same dual pricing as admission.
// needsCapacity is false for queries whose hold already expired — their
// compute is done; only replica presence and the deadline must be restored.
func (e *Engine) pickRepairNode(q workload.QueryID, n workload.DatasetID, needsCapacity bool,
	tentative map[graph.NodeID]float64, tentOpen map[workload.DatasetID]map[graph.NodeID]bool) (graph.NodeID, bool, bool) {

	need := e.p.ComputeNeed(q, n)
	size := e.p.Datasets[n].SizeGB
	deadline := e.p.Queries[q].DeadlineSec
	openCount := e.sol.ReplicaCount(n) + len(tentOpen[n])
	maxU := e.opt.maxUtil()

	var best graph.NodeID = -1
	bestFresh := false
	bestCost := math.Inf(1)
	for _, w := range e.p.Cloud.ComputeNodes() {
		if e.live.IsDown(w) {
			continue
		}
		delay, ok := e.p.EvalDelay(q, n, w)
		if !ok || delay > deadline {
			continue
		}
		if needsCapacity {
			capGHz := e.p.Cloud.Capacity(w)
			if e.usedGHz(w)+tentative[w]+need > capGHz*maxU+1e-9 {
				continue
			}
		}
		has := e.sol.HasReplica(n, w) || tentOpen[n][w]
		repPrice := 0.0
		if !has {
			if openCount >= e.p.MaxReplicas {
				continue
			}
			repPrice = 0.25 * size * float64(openCount+1) / float64(e.p.MaxReplicas)
		}
		cost := need*e.theta(w) + delayPriceWeight*size*(delay/deadline) + repPrice
		if cost < bestCost {
			best, bestFresh, bestCost = w, !has, cost
		}
	}
	return best, bestFresh, best != -1
}

// evict undoes query q's admission: its remaining allocations are released,
// its assignments removed, its volume given back.
func (e *Engine) evict(q workload.QueryID, rep *CrashReport) {
	for _, r := range e.releases.extract(func(r release) bool { return r.query == q }) {
		e.giveBack(r)
	}
	vol := e.p.Queries[q].DemandedVolume(e.p.Datasets)
	e.sol.Unadmit(q)
	e.res.VolumeAdmitted -= vol
	e.res.Evicted++
	rep.Evicted = append(rep.Evicted, q)
	rep.EvictedVolume += vol
	statEvictions.Inc()
	e.emitEvict(q, vol)
}
