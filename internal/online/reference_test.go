// The reference scan: per-offer pricing through the delay model and rejection
// classification through internal/placement, with no precomputed state. The
// tables in fastpath.go are the only production path; this is what they must
// agree with. TestFastPathEquivalence prices every arrival of its streams
// with this scan at the exact state Offer is about to price it at and
// requires the table path to match; BenchmarkFastPathPlan/slow times it.
// Failover repair's own scan, which repair ran before it priced off the same
// tables, is here too: the same streams plan every repair with it at the
// state repair planned in and require the same moves.
//
// Also the v0 record encoder, the JSON the engine journaled before the binary
// codec of record.go, and V0Journal, which writes whole journals in it: what
// TestRecordCodecMatchesJSON decodes both formats against and what the v0 and
// mixed-journal recovery tests recover. And the JSON snapshot encoder the
// binary codec of snapshot.go replaced, snapshotJSON: what
// TestSnapshotCodecMatchesJSON decodes against and what V0Journal and the
// cross-era recovery test snapshot in. And a table builder,
// newFastPathEvalReference, which prices through EvalDelay and MeetsDeadline
// alone; TestFastPathTablesMatchReference holds newFastPath to it.

package online

import (
	"encoding/json"
	"math"
	"slices"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// journalRecordV0 is the v0 WAL record, verbatim: the input the engine was
// given plus the outcome it committed to, in the typed trace schema
// (instrument.TraceEvent): an admit-shaped or reject-shaped event for offers
// (reject outcomes carry no Reason), a crash-shaped event for crashes, nil
// for restores.
type journalRecordV0 struct {
	Kind string  `json:"kind"`
	At   float64 `json:"at"`
	// Hold is the offer's HoldSec (offers only).
	Hold  float64 `json:"hold,omitempty"`
	Query int64   `json:"query"`
	Node  int64   `json:"node"`
	// Outcome is the committed result in trace-event shape.
	Outcome *instrument.TraceEvent `json:"outcome,omitempty"`
	// LostReplicas, Repaired, Evicted summarize a crash's repair phase; a
	// replayed crash must reproduce them exactly.
	LostReplicas int `json:"lost_replicas,omitempty"`
	Repaired     int `json:"repaired,omitempty"`
	Evicted      int `json:"evicted,omitempty"`
}

// offerRecordV0, crashRecordV0 and restoreRecordV0 are the v0 encoder: the
// journalOffer, journalCrash and journalRestore bodies the binary codec
// replaced, returning the payload instead of appending it.
func (e *Engine) offerRecordV0(a Arrival, dec Decision) ([]byte, error) {
	rec := &journalRecordV0{Kind: RecordOffer, At: a.AtSec, Hold: a.HoldSec, Query: int64(a.Query), Node: -1}
	var ev instrument.TraceEvent
	if dec.Admitted {
		ev = instrument.NewTraceEvent(instrument.EventAdmit, traceAlgo)
		ev.Query = int64(a.Query)
		for _, asg := range dec.Assignments {
			ev.Datasets = append(ev.Datasets, int64(asg.Dataset))
			ev.Nodes = append(ev.Nodes, int64(asg.Node))
			ev.Volume += e.p.Datasets[asg.Dataset].SizeGB
		}
	} else {
		ev = instrument.NewTraceEvent(instrument.EventReject, traceAlgo)
		ev.Query = int64(a.Query)
	}
	rec.Outcome = &ev
	return json.Marshal(rec)
}

func crashRecordV0(atSec float64, v graph.NodeID, rep CrashReport, volLost float64) ([]byte, error) {
	ev := instrument.NewTraceEvent(instrument.EventCrash, traceAlgo)
	ev.Node = int64(v)
	ev.Volume = volLost
	rec := &journalRecordV0{
		Kind: RecordCrash, At: atSec, Query: -1, Node: int64(v),
		Outcome: &ev, LostReplicas: rep.LostReplicas, Repaired: rep.Repaired, Evicted: len(rep.Evicted),
	}
	return json.Marshal(rec)
}

func (e *Engine) restoreRecordV0(v graph.NodeID) ([]byte, error) {
	return json.Marshal(&journalRecordV0{Kind: RecordRestore, At: e.now, Query: -1, Node: int64(v)})
}

// V0Journal drives an engine the way the binary before the codec did: every
// input is journaled as a v0 record, with a snapshot at the engine's
// SnapshotEvery cadence. The engine itself runs with its journal detached.
type V0Journal struct {
	e  *Engine
	jn *journal.Journal
}

// JournalV0 takes e's journal over for v0 records; e journals nothing itself
// from here on.
func JournalV0(e *Engine) *V0Journal {
	d := &V0Journal{e: e, jn: e.jn}
	e.jn = nil
	return d
}

func (d *V0Journal) Offer(a Arrival) (Decision, error) {
	dec, err := d.e.Offer(a)
	if err != nil {
		return dec, err
	}
	rec, err := d.e.offerRecordV0(a, dec)
	if err != nil {
		return dec, err
	}
	return dec, d.append(rec)
}

func (d *V0Journal) Crash(atSec float64, v graph.NodeID) (CrashReport, error) {
	rep, err := d.e.Crash(atSec, v)
	if err != nil {
		return rep, err
	}
	// The demanded volume of the admissions the node served, summed as Crash
	// sums it for its trace event.
	volLost := 0.0
	for _, q := range rep.AffectedQueries {
		volLost += d.e.p.Queries[q].DemandedVolume(d.e.p.Datasets)
	}
	rec, err := crashRecordV0(atSec, v, rep, volLost)
	if err != nil {
		return rep, err
	}
	return rep, d.append(rec)
}

func (d *V0Journal) Restore(v graph.NodeID) error {
	if err := d.e.Restore(v); err != nil {
		return err
	}
	rec, err := d.e.restoreRecordV0(v)
	if err != nil {
		return err
	}
	return d.append(rec)
}

// append is the v0 engine's appendRecord.
func (d *V0Journal) append(payload []byte) error {
	if _, err := d.jn.AppendUnsynced(payload); err != nil {
		return err
	}
	if d.e.snapEvery > 0 && d.jn.LSN()%int64(d.e.snapEvery) == 0 {
		return SnapshotJSON(d.e, d.jn)
	}
	return nil
}

// snapshotJSON is the snapshot encoder before the binary codec, verbatim:
// the JSON of the engine's state dump.
func snapshotJSON(st *EngineState) ([]byte, error) {
	return json.Marshal(st)
}

// SnapshotJSON writes e's state to jn as a snapshot in JSON, as the binary
// before the snapshot codec wrote every snapshot.
func SnapshotJSON(e *Engine, jn *journal.Journal) error {
	snap, err := snapshotJSON(e.StateDump())
	if err != nil {
		return err
	}
	return jn.Snapshot(snap)
}

// planSlow is the original planning loop — a full scan over the compute
// nodes through the delay model, per demand. It is side-effect free apart
// from filling the θ cache, whose entries are the bit-exact expression, so
// calling it before Offer on the same engine does not change what Offer
// decides.
func (e *Engine) planSlow(qid workload.QueryID) (bool, []placement.Assignment) {
	q := &e.p.Queries[qid]
	tentative := make(map[graph.NodeID]float64)
	tentOpen := make(map[workload.DatasetID]map[graph.NodeID]bool)
	var as []placement.Assignment
	for _, dm := range q.Demands {
		v, ok := e.pickNode(qid, dm, tentative, tentOpen)
		if !ok {
			return false, nil
		}
		need := e.p.ComputeNeed(qid, dm.Dataset)
		tentative[v] += need
		if !e.sol.HasReplica(dm.Dataset, v) {
			m := tentOpen[dm.Dataset]
			if m == nil {
				m = make(map[graph.NodeID]bool)
				tentOpen[dm.Dataset] = m
			}
			m[v] = true
		}
		as = append(as, placement.Assignment{Query: qid, Dataset: dm.Dataset, Node: v})
	}
	return true, as
}

// pickNode selects the cheapest feasible node for one demand under the
// instantaneous dual prices.
func (e *Engine) pickNode(q workload.QueryID, dm workload.Demand,
	tentative map[graph.NodeID]float64, tentOpen map[workload.DatasetID]map[graph.NodeID]bool) (graph.NodeID, bool) {

	need := e.p.ComputeNeed(q, dm.Dataset)
	size := e.p.Datasets[dm.Dataset].SizeGB
	deadline := e.p.Queries[q].DeadlineSec
	openCount := e.sol.ReplicaCount(dm.Dataset) + len(tentOpen[dm.Dataset])
	maxU := e.opt.maxUtil()

	var best graph.NodeID = -1
	bestCost := math.Inf(1)
	for _, v := range e.p.Cloud.ComputeNodes() {
		if e.live != nil && e.live.IsDown(v) {
			continue
		}
		delay, ok := e.p.EvalDelay(q, dm.Dataset, v)
		if !ok || delay > deadline {
			continue
		}
		capGHz := e.p.Cloud.Capacity(v)
		if e.usedGHz(v)+tentative[v]+need > capGHz*maxU+1e-9 {
			continue
		}
		has := e.sol.HasReplica(dm.Dataset, v) || tentOpen[dm.Dataset][v]
		rep := 0.0
		if !has {
			if openCount >= e.p.MaxReplicas {
				continue
			}
			if !slices.Contains(e.preferredSites[dm.Dataset], v) {
				rep = 0.25 * size * float64(openCount+1) / float64(e.p.MaxReplicas)
			}
		}
		cost := need*e.theta(v) + delayPriceWeight*size*(delay/deadline) + rep
		if cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best, best != -1
}

// planRepairReference is the planning half of repairQuery before repair
// priced off the admission tables, verbatim: tentative capacity and openings
// kept in maps, one pickRepairNode per stranded dataset, the first failure
// ending the plan.
func (e *Engine) planRepairReference(q workload.QueryID, datasets []workload.DatasetID,
	holds map[workload.DatasetID]float64) ([]repairMove, bool) {

	var moves []repairMove
	tentative := make(map[graph.NodeID]float64)
	tentOpen := make(map[workload.DatasetID]map[graph.NodeID]bool)
	for _, n := range datasets {
		expiry, active := holds[n]
		w, fresh, ok := e.pickRepairNode(q, n, active, tentative, tentOpen)
		if !ok {
			return moves, false
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
		moves = append(moves, repairMove{dataset: n, node: w, fresh: fresh, expiry: expiry, active: active})
	}
	return moves, true
}

// pickRepairNode selects the cheapest live node that can take over one
// stranded (query, dataset) under the same dual pricing as admission.
// needsCapacity is false for queries whose hold already expired — their
// compute is done; only replica presence and the deadline must be restored.
//
// Verbatim but for one line: it charged the replica-open price at a
// preferred site too, where admission (pickNode) charges none. Repair now
// prices as admission does, so the reference skips the charge there, as
// pickNode does; on an engine without a forecast the line never fires.
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
			if !slices.Contains(e.preferredSites[n], w) {
				repPrice = 0.25 * size * float64(openCount+1) / float64(e.p.MaxReplicas)
			}
		}
		cost := need*e.theta(w) + delayPriceWeight*size*(delay/deadline) + repPrice
		if cost < bestCost {
			best, bestFresh, bestCost = w, !has, cost
		}
	}
	return best, bestFresh, best != -1
}

// classifyReference is the generic rejection classification in
// internal/placement over the engine's instantaneous state — what
// Engine.ClassifyRejection computed before the classification tables.
func (e *Engine) classifyReference(q workload.QueryID) (instrument.Reason, workload.DatasetID, graph.NodeID) {
	maxU := e.opt.maxUtil()
	return placement.ClassifyRejection(e.p, q, placement.RejectionState{
		Avail: func(v graph.NodeID) float64 {
			return e.p.Cloud.Capacity(v)*maxU - e.usedGHz(v)
		},
		HasReplica:   e.sol.HasReplica,
		ReplicaCount: e.sol.ReplicaCount,
		Down:         e.downPredicate(),
	})
}

// downPredicate exposes liveness to rejection classification; nil (the
// pre-failover contract) when no node has ever crashed.
func (e *Engine) downPredicate() func(graph.NodeID) bool {
	if e.live == nil {
		return nil
	}
	return e.live.IsDown
}

// rankedTarget and rankTargets are graph.RankTargets as
// newFastPathEvalReference calls it: the compute nodes by ascending distance
// from the home node.
type rankedTarget struct {
	Node graph.NodeID
	Dist float64
}

func rankTargets(c *graph.DistanceCache, src graph.NodeID, targets []graph.NodeID) []rankedTarget {
	sp := c.Shortest(src)
	out := make([]rankedTarget, len(targets))
	for i, v := range targets {
		out[i] = rankedTarget{Node: v, Dist: sp.Dist[v]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// refCand and refDemand are a table as newFastPathEvalReference builds it:
// every float the engine prices with spelled out, the classification set in
// ascending node order.
type refCand struct {
	node      graph.NodeID
	delay     float64
	delayCost float64
	preferred bool
}

type refDemand struct {
	dataset         workload.DatasetID
	need, size25    float64
	cands           []refCand // by (delay, node)
	class           []refCand // by node; delay only
	bestFinite      graph.NodeID
	bestFiniteDelay float64
}

// newFastPathEvalReference builds the tables from the delay model's own
// predicates, independent of the Problem's candidate tables and of any
// builder's inline deadline test: per demand, one loop over the home's
// distance ranking through EvalDelay for the admission set (sorted with
// sort.Slice), then a second loop over the compute nodes through EvalDelay
// and MeetsDeadline for the closest finite-delay node and the classification
// set; queries one after another. TestFastPathTablesMatchReference holds
// newFastPath to it field for field.
func newFastPathEvalReference(e *Engine) [][]refDemand {
	compute := e.p.Cloud.ComputeNodes()
	cache := e.p.Cloud.Topology().DistanceCache()
	perQuery := make([][]refDemand, len(e.p.Queries))
	for qi := range e.p.Queries {
		q := &e.p.Queries[qi]
		qid := workload.QueryID(qi)
		ranked := rankTargets(cache, q.Home, compute)
		demands := make([]refDemand, len(q.Demands))
		for di, dm := range q.Demands {
			d := refDemand{
				dataset:         dm.Dataset,
				need:            e.p.ComputeNeed(qid, dm.Dataset),
				size25:          0.25 * e.p.Datasets[dm.Dataset].SizeGB,
				bestFinite:      -1,
				bestFiniteDelay: math.Inf(1),
			}
			size := e.p.Datasets[dm.Dataset].SizeGB
			deadline := q.DeadlineSec
			for _, rt := range ranked {
				v := rt.Node
				delay, ok := e.p.EvalDelay(qid, dm.Dataset, v)
				if !ok || delay > deadline {
					continue
				}
				d.cands = append(d.cands, refCand{
					node:      v,
					delay:     delay,
					delayCost: delayPriceWeight * size * (delay / deadline),
					preferred: slices.Contains(e.preferredSites[dm.Dataset], v),
				})
			}
			sort.Slice(d.cands, func(i, j int) bool {
				if d.cands[i].delay != d.cands[j].delay {
					return d.cands[i].delay < d.cands[j].delay
				}
				return d.cands[i].node < d.cands[j].node
			})
			for _, v := range compute {
				delay, ok := e.p.EvalDelay(qid, dm.Dataset, v)
				if !ok {
					continue
				}
				if !math.IsInf(delay, 1) && delay < d.bestFiniteDelay {
					d.bestFinite, d.bestFiniteDelay = v, delay
				}
				if e.p.MeetsDeadline(qid, dm.Dataset, v) {
					d.class = append(d.class, refCand{node: v, delay: delay})
				}
			}
			demands[di] = d
		}
		perQuery[qi] = demands
	}
	return perQuery
}
