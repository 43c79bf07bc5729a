// Package reactive implements the strategy the paper's *proactive*
// replication is implicitly contrasted against: replicas are created
// on-demand at query time. The first query needing a dataset at a node pays
// a cache-miss penalty — the dataset must travel from its origin before
// processing can start, and that fetch counts against the query's deadline —
// while later queries hit the warm copy. Eviction keeps at most K copies per
// dataset (least-recently-used beyond the bound).
//
// Comparing this engine against internal/core quantifies the value of the
// paper's proactivity: under tight QoS requirements the miss penalty alone
// disqualifies most first accesses, which is exactly the argument of the
// paper's introduction ("proactively replicate a large dataset ... so that
// query users can obtain their desired query results within their specified
// time duration").
package reactive

import (
	"math"

	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Options tunes the reactive engine.
type Options struct {
	// ColdStartAtOrigin, when true, seeds each dataset's first copy at its
	// origin node (where the data was generated); otherwise the very first
	// access anywhere is a miss.
	ColdStartAtOrigin bool
}

// Result summarizes a reactive run.
type Result struct {
	Solution *placement.Solution
	// Misses counts queries that paid at least one cache-miss fetch.
	Misses int
	// Hits counts demands served from warm copies.
	Hits int
	// Evictions counts replica evictions forced by the K bound.
	Evictions int
}

// engineState tracks warm copies with LRU ordering per dataset.
type engineState struct {
	p     *placement.Problem
	avail map[graph.NodeID]float64
	// warm[n] lists the nodes holding dataset n, most recently used last.
	warm map[workload.DatasetID][]graph.NodeID
	sol  *placement.Solution
	res  Result
	// clock counts processed queries for LRU bookkeeping.
	clock int
}

// Run processes queries in ID order (their arrival order): each demand is
// served from the warm copy with the smallest total delay, or fetched from
// the dataset's origin into the best node when no warm copy satisfies the
// deadline. The fetch adds |S_n|·dt(origin→v) to the demand's delay.
// Admission remains all-or-nothing per query.
func Run(p *placement.Problem, opt Options) (*Result, error) {
	e := &engineState{
		p:     p,
		avail: make(map[graph.NodeID]float64),
		warm:  make(map[workload.DatasetID][]graph.NodeID),
		sol:   placement.NewSolution(),
	}
	for _, v := range p.Cloud.ComputeNodes() {
		e.avail[v] = p.Cloud.Capacity(v)
	}
	if opt.ColdStartAtOrigin {
		for n := range p.Datasets {
			e.touch(workload.DatasetID(n), p.Datasets[n].Origin)
		}
	}

	for qi := range p.Queries {
		e.offer(qi)
	}

	e.res.Solution = e.sol
	// Reactive caches evict, so the final warm set is a snapshot; the
	// recorded solution accumulates every node that ever served an
	// assignment, which can exceed K per dataset over time. The paper's
	// constraint bounds *simultaneous* replicas, which the engine enforces
	// at every step (admitCopy evicts beyond K); the returned solution
	// satisfies the capacity, assignment, and deadline constraints by
	// construction but is not run through the offline K-bound validator.
	return &e.res, nil
}

// offer attempts to admit query qi.
func (e *engineState) offer(qi int) {
	q := &e.p.Queries[qi]
	type plan struct {
		node  graph.NodeID
		need  float64
		fetch bool
	}
	tentative := make(map[graph.NodeID]float64)
	plans := make([]plan, 0, len(q.Demands))
	missed := false
	for _, dm := range q.Demands {
		need := e.p.ComputeNeed(q.ID, dm.Dataset)
		// Warm copies first: smallest evaluation delay wins.
		var best graph.NodeID = -1
		bestDelay := math.Inf(1)
		for _, v := range e.warm[dm.Dataset] {
			if need > e.avail[v]-tentative[v]+1e-9 {
				continue
			}
			delay, ok := e.p.EvalDelay(q.ID, dm.Dataset, v)
			if !ok || delay > q.DeadlineSec {
				continue
			}
			if delay < bestDelay {
				best, bestDelay = v, delay
			}
		}
		if best != -1 {
			plans = append(plans, plan{node: best, need: need})
			tentative[best] += need
			continue
		}
		// Cache miss: fetch from origin into the node minimizing
		// fetch + evaluation delay, still within the deadline.
		fromOrigin := e.p.Cloud.DelayFrom(e.p.Datasets[dm.Dataset].Origin)
		size := e.p.Datasets[dm.Dataset].SizeGB
		best, bestDelay = -1, math.Inf(1)
		for _, v := range e.p.Cloud.ComputeNodes() {
			if need > e.avail[v]-tentative[v]+1e-9 {
				continue
			}
			evalDelay, ok := e.p.EvalDelay(q.ID, dm.Dataset, v)
			if !ok {
				continue
			}
			total := evalDelay + size*fromOrigin[v]
			if total > q.DeadlineSec {
				continue
			}
			if total < bestDelay {
				best, bestDelay = v, total
			}
		}
		if best == -1 {
			return // all-or-nothing: reject the query
		}
		plans = append(plans, plan{node: best, need: need, fetch: true})
		tentative[best] += need
		missed = true
	}

	// Commit.
	var as []placement.Assignment
	for i, pl := range plans {
		ds := q.Demands[i].Dataset
		e.avail[pl.node] -= pl.need
		if e.avail[pl.node] < 0 {
			e.avail[pl.node] = 0
		}
		if pl.fetch {
			e.admitCopy(ds, pl.node)
		}
		e.touch(ds, pl.node)
		e.sol.AddReplica(ds, pl.node)
		if pl.fetch {
			// fetch accounted in res below
		} else {
			e.res.Hits++
		}
		as = append(as, placement.Assignment{Query: q.ID, Dataset: ds, Node: pl.node})
	}
	e.sol.Admit(q.ID, as)
	if missed {
		e.res.Misses++
	}
	e.clock++
}

// admitCopy inserts a new warm copy, evicting the least recently used one
// when the K bound is reached.
func (e *engineState) admitCopy(n workload.DatasetID, v graph.NodeID) {
	for _, w := range e.warm[n] {
		if w == v {
			return
		}
	}
	if len(e.warm[n]) >= e.p.MaxReplicas {
		// Evict LRU (front of the list).
		e.warm[n] = e.warm[n][1:]
		e.res.Evictions++
	}
	e.warm[n] = append(e.warm[n], v)
}

// touch marks (n, v) most recently used.
func (e *engineState) touch(n workload.DatasetID, v graph.NodeID) {
	list := e.warm[n]
	for i, w := range list {
		if w == v {
			list = append(append(list[:i], list[i+1:]...), v)
			e.warm[n] = list
			return
		}
	}
	e.admitCopy(n, v)
}
