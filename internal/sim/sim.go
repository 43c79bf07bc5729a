// Package sim is a discrete-event simulator that executes a placement
// solution on the modeled edge cloud: queries arrive, their demanded
// datasets are processed on the assigned replica nodes (consuming node
// computing capacity for the processing duration), intermediate results
// travel back to the query's home node over shortest paths, and the query
// completes when its last intermediate result arrives.
//
// The simulator closes the loop between the paper's static admission model
// and dynamic behaviour: with simultaneous arrivals and validator-feasible
// solutions, measured response latencies equal the analytic delays of
// placement.EvalDelay and every admitted query meets its deadline; with
// oversubscribed capacity or staggered arrivals, tasks queue FCFS and the
// report exposes the resulting violations.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/metrics"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// Config controls a simulation run.
type Config struct {
	// ArrivalRate is the Poisson arrival rate (queries per second) of
	// admitted queries, in admission order. Zero means all queries arrive
	// at time 0 (the paper's static model).
	ArrivalRate float64
	// Seed drives arrival randomness.
	Seed int64
}

// QueryMetric is the measured outcome of one admitted query.
type QueryMetric struct {
	Query      workload.QueryID
	ArrivalSec float64
	// LatencySec is completion − arrival.
	LatencySec  float64
	DeadlineSec float64
	// Met reports whether the measured latency satisfied the deadline.
	Met bool
}

// Report aggregates a run.
type Report struct {
	Queries []QueryMetric
	// MeanLatencySec / MaxLatencySec over completed queries.
	MeanLatencySec float64
	MaxLatencySec  float64
	// P50/P95/P99LatencySec are nearest-rank latency percentiles.
	P50LatencySec float64
	P95LatencySec float64
	P99LatencySec float64
	// DeadlineViolations counts queries whose measured latency exceeded
	// their deadline.
	DeadlineViolations int
	// BusyGHzSeconds is the per-node integral of allocated compute.
	BusyGHzSeconds map[graph.NodeID]float64
	// MakespanSec is the completion time of the last query.
	MakespanSec float64
}

// event kinds, processed through one time-ordered heap.
type eventKind int

const (
	evArrival eventKind = iota
	evProcDone
	evTransferDone
)

type event struct {
	at   float64
	seq  int // tie-break for determinism
	kind eventKind
	task *task
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// task is one (query, dataset) unit of work.
type task struct {
	query       workload.QueryID
	dataset     workload.DatasetID
	node        graph.NodeID
	needGHz     float64
	procSec     float64
	transferSec float64
	startedAt   float64
}

// nodeState tracks free compute and the FCFS backlog of one node.
type nodeState struct {
	freeGHz float64
	queue   []*task
}

// queryState tracks per-query completion.
type queryState struct {
	remaining int
	arrival   float64
	deadline  float64
}

// Run simulates the solution on the problem. Only admitted queries execute;
// the solution does not need to be validator-feasible (infeasible inputs
// simply queue and show up as violations in the report).
func Run(p *placement.Problem, sol *placement.Solution, cfg Config) (*Report, error) {
	if cfg.ArrivalRate < 0 {
		return nil, fmt.Errorf("sim: negative arrival rate %v", cfg.ArrivalRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nodes := make(map[graph.NodeID]*nodeState, len(p.Cloud.ComputeNodes()))
	for _, v := range p.Cloud.ComputeNodes() {
		nodes[v] = &nodeState{freeGHz: p.Cloud.Capacity(v)}
	}
	queries := make(map[workload.QueryID]*queryState)
	busy := make(map[graph.NodeID]float64)

	// Index assignments per query.
	perQuery := make(map[workload.QueryID][]placement.Assignment)
	for _, a := range sol.Assignments {
		perQuery[a.Query] = append(perQuery[a.Query], a)
	}

	var h eventHeap
	seq := 0
	push := func(at float64, kind eventKind, tk *task) {
		heap.Push(&h, &event{at: at, seq: seq, kind: kind, task: tk})
		seq++
	}

	// Schedule arrivals in admitted order.
	t := 0.0
	for _, q := range sol.Admitted() {
		if cfg.ArrivalRate > 0 {
			t += rng.ExpFloat64() / cfg.ArrivalRate
		}
		as := perQuery[q]
		queries[q] = &queryState{
			remaining: len(as),
			arrival:   t,
			deadline:  p.Queries[q].DeadlineSec,
		}
		for _, a := range as {
			d, ok := p.Demand(q, a.Dataset)
			if !ok {
				return nil, fmt.Errorf("sim: assignment for dataset %d not demanded by query %d", a.Dataset, q)
			}
			size := p.Datasets[a.Dataset].SizeGB
			tk := &task{
				query:       q,
				dataset:     a.Dataset,
				node:        a.Node,
				needGHz:     p.ComputeNeed(q, a.Dataset),
				procSec:     size * p.Cloud.ProcDelayPerGB(a.Node),
				transferSec: size * d.Selectivity * p.Cloud.TransferDelayPerGB(a.Node, p.Queries[q].Home),
			}
			push(t, evArrival, tk)
		}
		if len(as) == 0 {
			return nil, fmt.Errorf("sim: admitted query %d has no assignments", q)
		}
	}

	report := &Report{BusyGHzSeconds: busy}
	completed := make(map[workload.QueryID]float64)

	startIfPossible := func(now float64, ns *nodeState) {
		// Work-conserving FCFS with first-fit skip: scan the backlog in
		// order and start every task that fits.
		kept := ns.queue[:0]
		for _, tk := range ns.queue {
			if tk.needGHz <= ns.freeGHz+1e-9 {
				ns.freeGHz -= tk.needGHz
				tk.startedAt = now
				push(now+tk.procSec, evProcDone, tk)
			} else {
				kept = append(kept, tk)
			}
		}
		ns.queue = kept
	}

	for h.Len() > 0 {
		ev := heap.Pop(&h).(*event)
		now := ev.at
		switch ev.kind {
		case evArrival:
			ns, ok := nodes[ev.task.node]
			if !ok {
				return nil, fmt.Errorf("sim: task assigned to non-compute node %d", ev.task.node)
			}
			ns.queue = append(ns.queue, ev.task)
			startIfPossible(now, ns)
		case evProcDone:
			ns := nodes[ev.task.node]
			ns.freeGHz += ev.task.needGHz
			busy[ev.task.node] += ev.task.needGHz * ev.task.procSec
			push(now+ev.task.transferSec, evTransferDone, ev.task)
			startIfPossible(now, ns)
		case evTransferDone:
			qs := queries[ev.task.query]
			qs.remaining--
			if qs.remaining == 0 {
				completed[ev.task.query] = now
			}
		}
	}

	// Build metrics in admitted order.
	for _, q := range sol.Admitted() {
		qs := queries[q]
		done, ok := completed[q]
		if !ok {
			return nil, fmt.Errorf("sim: query %d never completed (deadlocked backlog?)", q)
		}
		lat := done - qs.arrival
		m := QueryMetric{
			Query:       q,
			ArrivalSec:  qs.arrival,
			LatencySec:  lat,
			DeadlineSec: qs.deadline,
			Met:         lat <= qs.deadline+1e-9,
		}
		if !m.Met {
			report.DeadlineViolations++
		}
		report.Queries = append(report.Queries, m)
		if lat > report.MaxLatencySec {
			report.MaxLatencySec = lat
		}
		report.MeanLatencySec += lat
		if done > report.MakespanSec {
			report.MakespanSec = done
		}
	}
	if len(report.Queries) > 0 {
		report.MeanLatencySec /= float64(len(report.Queries))
		lats := make([]float64, len(report.Queries))
		for i, m := range report.Queries {
			lats[i] = m.LatencySec
		}
		report.P50LatencySec = metrics.Percentile(lats, 50)
		report.P95LatencySec = metrics.Percentile(lats, 95)
		report.P99LatencySec = metrics.Percentile(lats, 99)
	}
	sort.Slice(report.Queries, func(i, j int) bool { return report.Queries[i].Query < report.Queries[j].Query })
	return report, nil
}

// PredictedLatency returns the analytic response latency of an admitted
// query under the static model: the maximum over its assignments of
// processing plus transfer delay (paper §2.3).
func PredictedLatency(p *placement.Problem, sol *placement.Solution, q workload.QueryID) (float64, error) {
	maxDelay := 0.0
	found := false
	for _, a := range sol.Assignments {
		if a.Query != q {
			continue
		}
		d, ok := p.EvalDelay(q, a.Dataset, a.Node)
		if !ok {
			return 0, fmt.Errorf("sim: assignment for non-demanded dataset %d", a.Dataset)
		}
		found = true
		if d > maxDelay {
			maxDelay = d
		}
	}
	if !found {
		return 0, fmt.Errorf("sim: query %d has no assignments", q)
	}
	return maxDelay, nil
}
