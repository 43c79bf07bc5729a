// Trace emission for the online engine. Event construction is gated behind
// instrument.TraceActive so Offer stays allocation-free (beyond its own
// planning state) when no sink is attached.
//
// Online capacity is temporal — allocations are released when their hold
// expires — so a replayed trace cannot reconstruct instantaneous load.
// invariant.CheckTrace is therefore run in online mode against these traces
// (capacity-dependent rejection reasons are trusted; deadline and
// disconnection are still recomputed from first principles).
package online

import (
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// histOnlineQueryDelay is the response delay (max evaluation delay over the
// bundle) of each query admitted online.
var histOnlineQueryDelay = instrument.NewHistogram("online.query_delay_seconds", instrument.DefaultDelayBuckets...)

const traceAlgo = "online"

// beginTrace opens the engine's trace span (no-op without a sink).
func (e *Engine) beginTrace() {
	if !instrument.TraceActive() {
		return
	}
	e.traceRun = instrument.NextTraceRun()
	ev := instrument.NewTraceEvent(instrument.EventBegin, traceAlgo)
	ev.Run = e.traceRun
	ev.Label = instrument.TraceLabel()
	instrument.EmitTrace(&ev)
}

// emitAdmit records one admitted arrival and feeds the delay histogram.
func (e *Engine) emitAdmit(a Arrival, as []placement.Assignment) {
	if instrument.Enabled() {
		worst := 0.0
		for _, asg := range as {
			if delay, ok := e.p.EvalDelay(a.Query, asg.Dataset, asg.Node); ok && delay > worst {
				worst = delay
			}
		}
		if len(as) > 0 {
			histOnlineQueryDelay.Observe(worst)
		}
	}
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventAdmit, traceAlgo)
	ev.Run = e.traceRun
	ev.Query = int64(a.Query)
	for _, asg := range as {
		ev.Datasets = append(ev.Datasets, int64(asg.Dataset))
		ev.Nodes = append(ev.Nodes, int64(asg.Node))
		ev.Volume += e.p.Datasets[asg.Dataset].SizeGB
	}
	e.attachStageNs(&ev)
	instrument.EmitTrace(&ev)
}

// attachStageNs copies the serving layer's in-progress timeline (the prefix
// known at decision time — queue and coalesce; later stages haven't run yet)
// onto a decision event while attribution is active. The JSONL sink drops
// StageNs unless IncludeTimings is set, so this never perturbs the
// byte-identical trace contract.
func (e *Engine) attachStageNs(ev *instrument.TraceEvent) {
	if e.stages == nil || !instrument.AttributionActive() {
		return
	}
	ev.StageNs = append([]int64(nil), e.stages[:]...)
}

// ClassifyRejection attributes a rejection of q to the paper constraint that
// kills it at the engine's *current* instantaneous state (capacity net of
// the configured utilization headroom, the materialized replica layout, and
// liveness). The admission daemon calls it to put a typed reason on the wire
// with every rejected response; emitReject uses the same classification for
// the trace, so the reason an operator sees over HTTP is byte-for-byte the
// reason invariant.CheckTrace replays.
//
// The answer comes from the precomputed classification tables: same reason,
// same locus as placement.ClassifyRejection over this state, which
// TestFastPathEquivalence checks at every rejection of its churn stream.
func (e *Engine) ClassifyRejection(q workload.QueryID) (instrument.Reason, workload.DatasetID, graph.NodeID) {
	return e.classifyFast(q)
}

// emitReject classifies the rejected arrival against the instantaneous load
// and records the typed reason.
func (e *Engine) emitReject(a Arrival) {
	if !instrument.TraceActive() {
		return
	}
	reason, ds, node := e.ClassifyRejection(a.Query)
	ev := instrument.NewTraceEvent(instrument.EventReject, traceAlgo)
	ev.Run = e.traceRun
	ev.Query = int64(a.Query)
	ev.Reason = reason
	ev.Dataset = int64(ds)
	ev.Node = int64(node)
	e.attachStageNs(&ev)
	instrument.EmitTrace(&ev)
}

// emitCrash records a node failure: Node is the crashed node, Volume the
// demanded volume of the admissions it was serving at that instant.
func (e *Engine) emitCrash(v graph.NodeID, affectedVolume float64) {
	if fr := instrument.CurrentFlightRecorder(); fr != nil {
		fr.RecordEvent(instrument.EventCrash, -1, int64(v), instrument.ReasonNodeCrashed)
	}
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventCrash, traceAlgo)
	ev.Run = e.traceRun
	ev.Node = int64(v)
	ev.Volume = affectedVolume
	instrument.EmitTrace(&ev)
}

// emitRepair records one stranded assignment re-pointed at node w.
func (e *Engine) emitRepair(q workload.QueryID, n workload.DatasetID, w graph.NodeID) {
	if fr := instrument.CurrentFlightRecorder(); fr != nil {
		fr.RecordEvent(instrument.EventRepair, int64(q), int64(w), instrument.ReasonRepaired)
	}
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventRepair, traceAlgo)
	ev.Run = e.traceRun
	ev.Query = int64(q)
	ev.Dataset = int64(n)
	ev.Node = int64(w)
	ev.Reason = instrument.ReasonRepaired
	instrument.EmitTrace(&ev)
}

// emitEvict records an admitted query given up after a crash; Volume is the
// demanded volume handed back.
func (e *Engine) emitEvict(q workload.QueryID, vol float64) {
	if fr := instrument.CurrentFlightRecorder(); fr != nil {
		fr.RecordEvent(instrument.EventEvict, int64(q), -1, instrument.ReasonNodeCrashed)
	}
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventEvict, traceAlgo)
	ev.Run = e.traceRun
	ev.Query = int64(q)
	ev.Reason = instrument.ReasonNodeCrashed
	ev.Volume = vol
	instrument.EmitTrace(&ev)
}

// EmitRetryExhausted records that the driver gave up re-offering a rejected
// query: the retry backoffs have consumed its DeadlineSec budget. Emitted by
// admission-retry loops (ext-chaos), not by Offer itself — the engine sees
// each re-offer as an ordinary arrival.
func (e *Engine) EmitRetryExhausted(q workload.QueryID) {
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventReject, traceAlgo)
	ev.Run = e.traceRun
	ev.Query = int64(q)
	ev.Reason = instrument.ReasonRetryExhausted
	instrument.EmitTrace(&ev)
}

// EmitEnd closes the engine's trace span with the volume admitted so far.
// Drivers call it once the arrival stream is exhausted; further Offers are
// still legal but will not re-open the span.
func (e *Engine) EmitEnd() {
	if !instrument.TraceActive() {
		return
	}
	ev := instrument.NewTraceEvent(instrument.EventEnd, traceAlgo)
	ev.Run = e.traceRun
	ev.Volume = e.res.VolumeAdmitted
	instrument.EmitTrace(&ev)
}
