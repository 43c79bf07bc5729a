// Trace emission and the richer ascent metrics. Everything here is gated:
// histogram/gauge updates behind instrument.Enabled (inside the metric
// methods), event construction behind instrument.TraceActive — with neither
// a sink nor -stats active the admission hot path allocates nothing
// (TestTraceEmissionZeroAllocInactive asserts this on ApproG).
package core

import (
	"time"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// Ascent distributions and live levels (enabled via instrument.Enable).
var (
	// histQueryDelay is the response delay of each admitted query: the max
	// evaluation delay over its bundle (the query completes when its slowest
	// demand does).
	histQueryDelay = instrument.NewHistogram("core.query_delay_seconds", instrument.DefaultDelayBuckets...)
	// histPlacementDelay is the per-dataset placement delay: the evaluation
	// delay of every (demand, node) assignment committed.
	histPlacementDelay = instrument.NewHistogram("core.placement_delay_seconds", instrument.DefaultDelayBuckets...)
	// histAscentRounds is the dual-ascent round count per run.
	histAscentRounds = instrument.NewHistogram("core.ascent_iterations", instrument.DefaultIterationBuckets...)
	// Live capacity utilization per node class, updated at every commit.
	gaugeUtilDC       = instrument.NewGauge("core.util_datacenter")
	gaugeUtilCloudlet = instrument.NewGauge("core.util_cloudlet")

	timerProactive = instrument.NewTimer("core.phase_proactive_ns")
	timerAdmission = instrument.NewTimer("core.phase_admission_ns")
)

// node classes for the utilization gauges.
const (
	classDC = iota
	classCloudlet
	numClasses
)

// initClasses fills the per-class capacity ledger behind the utilization
// gauges. Initial use is nonzero when the cloud arrives pre-allocated.
func (a *ascent) initClasses() {
	a.nodeClass = make([]int, len(a.nodes))
	top := a.p.Cloud.Topology()
	for vi, v := range a.nodes {
		class := classCloudlet
		if top.Node(v).Kind == topology.DataCenter {
			class = classDC
		}
		a.nodeClass[vi] = class
		a.classCap[class] += a.caps[vi]
		a.classUsed[class] += a.caps[vi] - a.avail[vi]
	}
	a.publishUtil()
}

// noteUse records a committed allocation on node index vi and republishes the
// class utilization gauges.
func (a *ascent) noteUse(vi int, need float64) {
	a.classUsed[a.nodeClass[vi]] += need
}

// publishUtil sets the per-class utilization gauges from the ledger.
func (a *ascent) publishUtil() {
	if !instrument.Enabled() {
		return
	}
	for class, name := range [numClasses]*instrument.Gauge{gaugeUtilDC, gaugeUtilCloudlet} {
		if a.classCap[class] > 0 {
			name.Set(a.classUsed[class] / a.classCap[class])
		}
	}
}

// beginTrace opens the run's trace span (no-op without a sink).
func (a *ascent) beginTrace(algo string) {
	a.algo = algo
	if !instrument.TraceActive() {
		return
	}
	a.traceRun = instrument.NextTraceRun()
	ev := instrument.NewTraceEvent(instrument.EventBegin, algo)
	ev.Run = a.traceRun
	ev.Label = instrument.TraceLabel()
	instrument.EmitTrace(&ev)
}

// emitPhase closes a phase span with its wall-clock duration (dropped by the
// deterministic sink unless timings are requested).
func (a *ascent) emitPhase(phase string, elapsed time.Duration) {
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventPhase, a.algo)
	ev.Run = a.traceRun
	ev.Phase = phase
	ev.ElapsedNs = int64(elapsed)
	instrument.EmitTrace(&ev)
}

// emitAdmit records query qi's committed bundle with its per-demand
// assignment, in the round commit has just counted.
func (a *ascent) emitAdmit(qi int) {
	if !instrument.TraceActive() {
		return
	}
	q := &a.p.Queries[qi]
	b := &a.bundles[qi]
	ev := instrument.NewTraceEvent(instrument.EventAdmit, a.algo)
	ev.Run = a.traceRun
	ev.Query = int64(q.ID)
	ev.Round = int64(a.rounds)
	ev.Volume = b.value
	for di, pick := range b.picks {
		if pick.node < 0 {
			continue // infeasible demand under PartialAdmission
		}
		ev.Datasets = append(ev.Datasets, int64(q.Demands[di].Dataset))
		ev.Nodes = append(ev.Nodes, int64(pick.node))
	}
	instrument.EmitTrace(&ev)
}

// emitReject classifies a permanently infeasible query against the committed
// ascent state and records the typed reason. Classification runs only when a
// sink is attached — rejection detection itself stays allocation-free.
func (a *ascent) emitReject(qi, round int) {
	if !instrument.TraceActive() {
		return
	}
	q := &a.p.Queries[qi]
	reason, ds, node := placement.ClassifyRejection(a.p, q.ID, placement.RejectionState{
		Avail:        func(v graph.NodeID) float64 { return a.avail[a.nodeIx[v]] },
		HasReplica:   a.sol.HasReplica,
		ReplicaCount: a.sol.ReplicaCount,
	})
	ev := instrument.NewTraceEvent(instrument.EventReject, a.algo)
	ev.Run = a.traceRun
	ev.Query = int64(q.ID)
	ev.Round = int64(round)
	ev.Reason = reason
	ev.Dataset = int64(ds)
	ev.Node = int64(node)
	instrument.EmitTrace(&ev)
}

// endTrace closes the run span with the achieved objective.
func (a *ascent) endTrace() {
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventEnd, a.algo)
	ev.Run = a.traceRun
	ev.Volume = a.sol.Volume(a.p)
	instrument.EmitTrace(&ev)
}

// observeCommit feeds the delay histograms for query qi's committed bundle.
func (a *ascent) observeCommit(qi int) {
	if !instrument.Enabled() {
		return
	}
	b := &a.bundles[qi]
	worst := 0.0
	any := false
	for di, pick := range b.picks {
		if pick.node < 0 {
			continue
		}
		delay, _ := a.p.EvalDelay(a.p.Queries[qi].ID, workload.DatasetID(b.demands[di].ds), pick.node)
		histPlacementDelay.Observe(delay)
		if !any || delay > worst {
			worst, any = delay, true
		}
	}
	if any {
		histQueryDelay.Observe(worst)
	}
}
