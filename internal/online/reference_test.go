// The reference scan: per-offer pricing through the delay model and rejection
// classification through internal/placement, with no precomputed state. The
// tables in fastpath.go are the only production path; this is what they must
// agree with. TestFastPathEquivalence prices every arrival of its streams
// with this scan at the exact state Offer is about to price it at and
// requires the table path to match; BenchmarkFastPathPlan/slow times it.

package online

import (
	"math"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

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
			if e.preferredSites == nil || !e.preferredSites[dm.Dataset][v] {
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

// rankedTarget and rankTargets are graph.RankTargets as newFastPathReference
// called it: the compute nodes by ascending distance from the home node.
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

// newFastPathReference is the table builder newFastPath replaced, verbatim:
// per demand, one loop over the home's distance ranking through EvalDelay for
// the admission set (sorted with sort.Slice), then a second loop over the
// compute nodes through EvalDelay and MeetsDeadline for the closest
// finite-delay node and the classification set; queries one after another.
// TestFastPathTablesMatchReference requires the one-pass parallel builder to
// produce the same tables field for field.
func newFastPathReference(e *Engine) *fastPath {
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
	for _, v := range compute {
		capGHz := e.p.Cloud.Capacity(v)
		f.capMaxU[v] = capGHz * maxU
		f.capEps[v] = capGHz*maxU + 1e-9
	}
	cache := t.DistanceCache()
	maxDemands := 0
	for qi := range e.p.Queries {
		q := &e.p.Queries[qi]
		qid := workload.QueryID(qi)
		if len(q.Demands) > maxDemands {
			maxDemands = len(q.Demands)
		}
		ranked := rankTargets(cache, q.Home, compute)
		demands := make([]fpDemand, len(q.Demands))
		for di, dm := range q.Demands {
			d := fpDemand{
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
				d.cands = append(d.cands, fpCand{
					node:      v,
					delay:     delay,
					delayCost: delayPriceWeight * size * (delay / deadline),
					preferred: e.preferredSites != nil && e.preferredSites[dm.Dataset][v],
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
					d.class = append(d.class, fpClassCand{node: v, delay: delay})
				}
			}
			demands[di] = d
			f.tables++
			f.candidates += len(d.cands)
		}
		f.perQuery[qi] = demands
	}
	f.scr = fpScratch{
		tentNode: make([]graph.NodeID, 0, maxDemands),
		tentAmt:  make([]float64, 0, maxDemands),
		openDs:   make([]workload.DatasetID, 0, maxDemands),
		openNode: make([]graph.NodeID, 0, maxDemands),
		assign:   make([]placement.Assignment, 0, maxDemands),
	}
	return f
}
