package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"edgerep/internal/graph"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// NodeFailure schedules a crash of one compute node at a point in time.
// Tasks queued or processing on the node at that moment are re-dispatched to
// another surviving replica of their dataset when one exists; otherwise
// their query fails. Intermediate results already in flight are unaffected.
type NodeFailure struct {
	Node  graph.NodeID
	AtSec float64
}

// FailureReport extends a Report with failure-handling outcomes.
type FailureReport struct {
	Report
	// FailedQueries lists queries that could not complete because a
	// demanded dataset lost its last reachable replica.
	FailedQueries []workload.QueryID
	// Reassigned counts tasks successfully re-dispatched after a crash.
	Reassigned int
	// Aborted counts task executions cut short by a crash (a task can be
	// aborted and then reassigned).
	Aborted int
}

// RunWithFailures simulates the solution under injected node crashes.
// Deadline accounting treats re-dispatched work like fresh work: the
// measured latency includes the wasted first attempt, so crashes surface as
// violations rather than being hidden.
func RunWithFailures(p *placement.Problem, sol *placement.Solution, cfg Config, failures []NodeFailure) (*FailureReport, error) {
	if cfg.ArrivalRate < 0 {
		return nil, fmt.Errorf("sim: negative arrival rate %v", cfg.ArrivalRate)
	}
	for _, f := range failures {
		if f.AtSec < 0 {
			return nil, fmt.Errorf("sim: failure at negative time %v", f.AtSec)
		}
	}

	// Build the same initial state as Run, but with failure events mixed
	// into the heap and re-dispatch logic on crash.
	fs := newFailureSim(p, sol, cfg)
	for _, f := range failures {
		if _, ok := fs.nodes[f.Node]; !ok {
			return nil, fmt.Errorf("sim: failure of non-compute node %d", f.Node)
		}
		fs.pushFailure(f)
	}
	if err := fs.scheduleArrivals(); err != nil {
		return nil, err
	}
	return fs.run()
}

// failureSim is the extended engine. It reuses the event heap and node
// bookkeeping shapes of Run but tracks liveness and per-task abort flags.
type failureSim struct {
	p   *placement.Problem
	sol *placement.Solution
	cfg Config

	nodes   map[graph.NodeID]*fNode
	queries map[workload.QueryID]*queryState
	busy    map[graph.NodeID]float64

	h   eventHeap
	seq int
	// taskOf maps a heap event's embedded task pointer back to its fTask
	// wrapper (the shared eventHeap stores *task).
	taskOf map[*task]*fTask

	report    FailureReport
	completed map[workload.QueryID]float64
	failed    map[workload.QueryID]bool
}

type fNode struct {
	freeGHz float64
	queue   []*fTask
	running map[*fTask]bool
	down    bool
}

type fTask struct {
	task
	attempt int
	aborted bool
}

const evFailure eventKind = 99

func newFailureSim(p *placement.Problem, sol *placement.Solution, cfg Config) *failureSim {
	fs := &failureSim{
		p:         p,
		sol:       sol,
		cfg:       cfg,
		nodes:     make(map[graph.NodeID]*fNode),
		queries:   make(map[workload.QueryID]*queryState),
		busy:      make(map[graph.NodeID]float64),
		completed: make(map[workload.QueryID]float64),
		failed:    make(map[workload.QueryID]bool),
		taskOf:    make(map[*task]*fTask),
	}
	for _, v := range p.Cloud.ComputeNodes() {
		fs.nodes[v] = &fNode{freeGHz: p.Cloud.Capacity(v), running: make(map[*fTask]bool)}
	}
	fs.report.BusyGHzSeconds = fs.busy
	return fs
}

func (fs *failureSim) push(at float64, kind eventKind, tk *fTask) {
	heap.Push(&fs.h, &event{at: at, seq: fs.seq, kind: kind, task: &tk.task})
	fs.seq++
	fs.taskOf[&tk.task] = tk
}

func (fs *failureSim) scheduleArrivals() error {
	perQuery := make(map[workload.QueryID][]placement.Assignment)
	for _, a := range fs.sol.Assignments {
		perQuery[a.Query] = append(perQuery[a.Query], a)
	}
	rng := rand.New(rand.NewSource(fs.cfg.Seed))
	t := 0.0
	for _, q := range fs.sol.Admitted() {
		if fs.cfg.ArrivalRate > 0 {
			t += rng.ExpFloat64() / fs.cfg.ArrivalRate
		}
		as := perQuery[q]
		if len(as) == 0 {
			return fmt.Errorf("sim: admitted query %d has no assignments", q)
		}
		fs.queries[q] = &queryState{remaining: len(as), arrival: t, deadline: fs.p.Queries[q].DeadlineSec}
		for _, a := range as {
			tk, err := fs.makeTask(q, a.Dataset, a.Node)
			if err != nil {
				return err
			}
			fs.push(t, evArrival, tk)
		}
	}
	return nil
}

func (fs *failureSim) makeTask(q workload.QueryID, ds workload.DatasetID, node graph.NodeID) (*fTask, error) {
	d, ok := fs.p.Demand(q, ds)
	if !ok {
		return nil, fmt.Errorf("sim: assignment for dataset %d not demanded by query %d", ds, q)
	}
	size := fs.p.Datasets[ds].SizeGB
	return &fTask{task: task{
		query:       q,
		dataset:     ds,
		node:        node,
		needGHz:     fs.p.ComputeNeed(q, ds),
		procSec:     size * fs.p.Cloud.ProcDelayPerGB(node),
		transferSec: size * d.Selectivity * fs.p.Cloud.TransferDelayPerGB(node, fs.p.Queries[q].Home),
	}}, nil
}

func (fs *failureSim) pushFailure(f NodeFailure) {
	marker := &fTask{task: task{node: f.Node}}
	fs.push(f.AtSec, evFailure, marker)
}

func (fs *failureSim) pop() *event {
	return heap.Pop(&fs.h).(*event)
}

func (fs *failureSim) startIfPossible(now float64, ns *fNode) {
	if ns.down {
		return
	}
	kept := ns.queue[:0]
	for _, tk := range ns.queue {
		if tk.needGHz <= ns.freeGHz+1e-9 {
			ns.freeGHz -= tk.needGHz
			tk.startedAt = now
			ns.running[tk] = true
			fs.push(now+tk.procSec, evProcDone, tk)
		} else {
			kept = append(kept, tk)
		}
	}
	ns.queue = kept
}

// redispatch finds a surviving replica node for a crashed task and enqueues
// a fresh attempt; returns false when the query cannot be salvaged.
func (fs *failureSim) redispatch(now float64, tk *fTask) bool {
	var best graph.NodeID = -1
	bestDelay := math.Inf(1)
	for _, v := range fs.sol.Replicas[tk.dataset] {
		ns := fs.nodes[v]
		if ns == nil || ns.down || v == tk.node {
			continue
		}
		delay, ok := fs.p.EvalDelay(tk.query, tk.dataset, v)
		if !ok {
			continue
		}
		if delay < bestDelay {
			best, bestDelay = v, delay
		}
	}
	if best == -1 {
		return false
	}
	fresh, err := fs.makeTask(tk.query, tk.dataset, best)
	if err != nil {
		return false
	}
	fresh.attempt = tk.attempt + 1
	fs.push(now, evArrival, fresh)
	// Reassigned is counted when the retry actually lands on a live node
	// (evArrival), not here: under simultaneous crashes the chosen target
	// can itself be down before the fresh arrival pops, and counting at
	// push time would tally the same task as both reassigned and failed.
	return true
}

func (fs *failureSim) failQuery(q workload.QueryID) {
	if fs.failed[q] {
		return
	}
	fs.failed[q] = true
	fs.report.FailedQueries = append(fs.report.FailedQueries, q)
}

func (fs *failureSim) run() (*FailureReport, error) {
	for len(fs.h) > 0 {
		ev := fs.pop()
		now := ev.at
		tk := fs.taskOf[ev.task]
		if tk == nil {
			tk = &fTask{task: *ev.task}
		}
		switch ev.kind {
		case evFailure:
			ns := fs.nodes[ev.task.node]
			if ns.down {
				continue
			}
			ns.down = true
			// Abort queued tasks.
			for _, queued := range ns.queue {
				queued.aborted = true
				fs.report.Aborted++
				if !fs.failed[queued.query] && !fs.redispatch(now, queued) {
					fs.failQuery(queued.query)
				}
			}
			ns.queue = nil
			// Abort running tasks; their evProcDone events become stale.
			// Sort for determinism — map iteration order would otherwise
			// leak into redispatch FIFO ordering.
			var runs []*fTask
			for running := range ns.running {
				runs = append(runs, running)
			}
			sort.Slice(runs, func(i, j int) bool {
				if runs[i].query != runs[j].query {
					return runs[i].query < runs[j].query
				}
				return runs[i].dataset < runs[j].dataset
			})
			for _, running := range runs {
				running.aborted = true
				fs.report.Aborted++
				if !fs.failed[running.query] && !fs.redispatch(now, running) {
					fs.failQuery(running.query)
				}
			}
			ns.running = make(map[*fTask]bool)
		case evArrival:
			if fs.failed[tk.query] {
				continue // sibling task of an already-failed query
			}
			ns, ok := fs.nodes[tk.node]
			if !ok {
				return nil, fmt.Errorf("sim: task assigned to non-compute node %d", tk.node)
			}
			if ns.down {
				if !fs.redispatch(now, tk) {
					fs.failQuery(tk.query)
				}
				continue
			}
			if tk.attempt > 0 {
				fs.report.Reassigned++ // the retry landed on a live node
			}
			ns.queue = append(ns.queue, tk)
			fs.startIfPossible(now, ns)
		case evProcDone:
			if tk.aborted {
				continue // stale completion from a crashed node
			}
			ns := fs.nodes[tk.node]
			delete(ns.running, tk)
			ns.freeGHz += tk.needGHz
			fs.busy[tk.node] += tk.needGHz * tk.procSec
			fs.push(now+tk.transferSec, evTransferDone, tk)
			fs.startIfPossible(now, ns)
		case evTransferDone:
			if fs.failed[tk.query] {
				continue
			}
			qs := fs.queries[tk.query]
			qs.remaining--
			if qs.remaining == 0 {
				fs.completed[tk.query] = now
			}
		}
	}

	for _, q := range fs.sol.Admitted() {
		qs := fs.queries[q]
		done, ok := fs.completed[q]
		if !ok {
			if fs.failed[q] {
				continue
			}
			return nil, fmt.Errorf("sim: query %d neither completed nor failed", q)
		}
		if fs.failed[q] {
			continue // failed after partial completion bookkeeping
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
			fs.report.DeadlineViolations++
		}
		fs.report.Queries = append(fs.report.Queries, m)
		if lat > fs.report.MaxLatencySec {
			fs.report.MaxLatencySec = lat
		}
		fs.report.MeanLatencySec += lat
		if done > fs.report.MakespanSec {
			fs.report.MakespanSec = done
		}
	}
	if len(fs.report.Queries) > 0 {
		fs.report.MeanLatencySec /= float64(len(fs.report.Queries))
	}
	return &fs.report, nil
}
