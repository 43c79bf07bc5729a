package invariant

import (
	"fmt"
	"math"

	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/placement"
	"edgerep/internal/workload"
)

// TraceOptions tunes CheckTrace.
type TraceOptions struct {
	// Online marks a trace produced by the online engine, whose capacity is
	// temporal (allocations are released when holds expire). A replay cannot
	// reconstruct instantaneous load, so capacity-dependent rejection
	// reasons (capacity-exhausted, k-bound, bundle-infeasible) are trusted;
	// deadline-violated and disconnected are still recomputed from first
	// principles, and a capacity-class reason recorded for a query that is
	// statically deadline-infeasible is flagged as a contradiction.
	Online bool
	// Final, when non-nil, is the solution the traced run returned; the
	// state replayed from the trace's replica and admit events must equal it
	// exactly (same replica sets, same admitted queries).
	Final *placement.Solution
}

// CheckTrace replays the events of ONE trace run (see
// instrument.SplitTraceRuns) against the problem instance and verifies that
// the engine's recorded decisions are consistent with ILP recomputation:
//
//   - structure: the run opens with a begin event, nothing follows end, and
//     admit events carry parallel Datasets/Nodes;
//   - admits: every recorded assignment meets its deadline (4), fits the
//     replayed capacity (2) (skipped online), respects the K bound (5) as
//     replicas materialize, and the recorded volume matches the bundle;
//   - rejects: placement.ClassifyRejection, run against the replayed state
//     at the moment of the rejection, must reproduce the recorded reason —
//     an engine cannot claim "capacity-exhausted" when the replayed ledger
//     still has room, or "deadline-violated" when a feasible node exists;
//   - end: the recorded objective matches the replayed solution's volume,
//     and (with Final) the replayed state equals the solution the run
//     actually returned.
//
// It returns every violation found, nil when the trace is clean.
func CheckTrace(p *placement.Problem, events []instrument.TraceEvent, opt TraceOptions) []Violation {
	var out []Violation
	add := func(kind, format string, args ...interface{}) {
		out = append(out, Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}

	if len(events) == 0 {
		add("structure", "empty trace run")
		return out
	}
	if events[0].Event != instrument.EventBegin {
		add("structure", "run does not open with a begin event (got %q)", events[0].Event)
	}

	avail := make(map[graph.NodeID]float64)
	for _, v := range p.Cloud.ComputeNodes() {
		avail[v] = p.Cloud.Available(v)
	}
	sol := placement.NewSolution()
	down := make(map[graph.NodeID]bool)
	ended := false

	addReplica := func(seq int64, ds workload.DatasetID, v graph.NodeID) {
		if int(ds) < 0 || int(ds) >= len(p.Datasets) {
			add("structure", "event %d: unknown dataset %d", seq, ds)
			return
		}
		if sol.HasReplica(ds, v) {
			return
		}
		if sol.ReplicaCount(ds) >= p.MaxReplicas {
			add("k-bound", "event %d: replica of dataset %d at node %d exceeds K=%d",
				seq, ds, v, p.MaxReplicas)
		}
		sol.AddReplica(ds, v)
	}

	for i := range events {
		ev := &events[i]
		if ended {
			add("structure", "event %d: %q event after end", ev.Seq, ev.Event)
		}
		switch ev.Event {
		case instrument.EventBegin, instrument.EventPhase:
			// structural only

		case instrument.EventReplica:
			addReplica(ev.Seq, workload.DatasetID(ev.Dataset), graph.NodeID(ev.Node))

		case instrument.EventAdmit:
			q := workload.QueryID(ev.Query)
			if int(q) < 0 || int(q) >= len(p.Queries) {
				add("structure", "event %d: admit of unknown query %d", ev.Seq, ev.Query)
				continue
			}
			if len(ev.Datasets) != len(ev.Nodes) {
				add("structure", "event %d: admit with %d datasets but %d nodes",
					ev.Seq, len(ev.Datasets), len(ev.Nodes))
				continue
			}
			var as []placement.Assignment
			vol := 0.0
			for j := range ev.Datasets {
				ds := workload.DatasetID(ev.Datasets[j])
				v := graph.NodeID(ev.Nodes[j])
				if int(ds) < 0 || int(ds) >= len(p.Datasets) {
					add("structure", "event %d: admit names unknown dataset %d", ev.Seq, ds)
					continue
				}
				if !p.MeetsDeadline(q, ds, v) {
					add("deadline", "event %d: query %d admitted with dataset %d at node %d violating its deadline",
						ev.Seq, q, ds, v)
				}
				need := p.ComputeNeed(q, ds)
				if !opt.Online {
					if need > avail[v]+capEps {
						add("capacity", "event %d: query %d needs %.4f GHz on node %d with only %.4f replayed",
							ev.Seq, q, need, v, avail[v])
					}
					avail[v] -= need
					if avail[v] < 0 {
						avail[v] = 0
					}
				}
				addReplica(ev.Seq, ds, v)
				as = append(as, placement.Assignment{Query: q, Dataset: ds, Node: v})
				vol += p.Datasets[ds].SizeGB
			}
			if ev.Volume != 0 && math.Abs(ev.Volume-vol) > volumeEps {
				add("objective", "event %d: admit of query %d records volume %.6f, assignments sum to %.6f",
					ev.Seq, q, ev.Volume, vol)
			}
			sol.Admit(q, as)

		case instrument.EventReject:
			q := workload.QueryID(ev.Query)
			if int(q) < 0 || int(q) >= len(p.Queries) {
				add("structure", "event %d: reject of unknown query %d", ev.Seq, ev.Query)
				continue
			}
			checkReject(p, q, ev, avail, sol, down, opt, add)

		case instrument.EventCrash:
			v := graph.NodeID(ev.Node)
			if _, ok := avail[v]; !ok {
				add("structure", "event %d: crash of non-compute node %d", ev.Seq, ev.Node)
				continue
			}
			down[v] = true
			// The node's replicas are gone; repairs must re-establish
			// presence (3) for every admission it served.
			for n := range p.Datasets {
				ds := workload.DatasetID(n)
				if sol.HasReplica(ds, v) {
					sol.RemoveReplica(ds, v)
				}
			}

		case instrument.EventRepair:
			q := workload.QueryID(ev.Query)
			ds := workload.DatasetID(ev.Dataset)
			v := graph.NodeID(ev.Node)
			if ev.Reason != instrument.ReasonRepaired {
				add("structure", "event %d: repair with reason %q", ev.Seq, ev.Reason)
			}
			if int(q) < 0 || int(q) >= len(p.Queries) || int(ds) < 0 || int(ds) >= len(p.Datasets) {
				add("structure", "event %d: repair names unknown query %d or dataset %d", ev.Seq, ev.Query, ev.Dataset)
				continue
			}
			if down[v] {
				add("repair", "event %d: query %d repaired onto crashed node %d", ev.Seq, q, v)
			}
			if !sol.IsAdmitted(q) {
				add("repair", "event %d: repair of query %d, which the replay has not admitted", ev.Seq, q)
				continue
			}
			if !p.MeetsDeadline(q, ds, v) {
				add("deadline", "event %d: repair moves query %d dataset %d to node %d violating its deadline",
					ev.Seq, q, ds, v)
			}
			addReplica(ev.Seq, ds, v)
			if sol.Reassign(placement.Assignment{Query: q, Dataset: ds, Node: v}) == 0 {
				add("repair", "event %d: repair of query %d dataset %d, but the replay has no such assignment",
					ev.Seq, q, ds)
			}

		case instrument.EventEvict:
			q := workload.QueryID(ev.Query)
			if int(q) < 0 || int(q) >= len(p.Queries) {
				add("structure", "event %d: evict of unknown query %d", ev.Seq, ev.Query)
				continue
			}
			if ev.Reason == "" {
				add("structure", "event %d: evict of query %d without a reason", ev.Seq, q)
			}
			if !sol.IsAdmitted(q) {
				add("evict", "event %d: evict of query %d, which the replay has not admitted", ev.Seq, q)
				continue
			}
			if vol := p.Queries[q].DemandedVolume(p.Datasets); ev.Volume != 0 && math.Abs(ev.Volume-vol) > volumeEps {
				add("objective", "event %d: evict of query %d records volume %.6f, its demands sum to %.6f",
					ev.Seq, q, ev.Volume, vol)
			}
			sol.Unadmit(q)

		case instrument.EventEnd:
			ended = true
			if ev.Volume != 0 || len(sol.Admitted()) > 0 {
				if vol := sol.Volume(p); math.Abs(ev.Volume-vol) > volumeEps {
					add("objective", "event %d: end records volume %.6f, replayed solution has %.6f",
						ev.Seq, ev.Volume, vol)
				}
			}

		default:
			add("structure", "event %d: unknown event kind %q", ev.Seq, ev.Event)
		}
	}
	if !ended && !opt.Online {
		add("structure", "run has no end event")
	}

	if opt.Final != nil {
		compareSolutions(p, sol, opt.Final, add)
	}
	return out
}

// checkReject recomputes the rejection classification against the replayed
// state and compares it with the recorded reason.
func checkReject(p *placement.Problem, q workload.QueryID, ev *instrument.TraceEvent,
	avail map[graph.NodeID]float64, sol *placement.Solution, down map[graph.NodeID]bool,
	opt TraceOptions, add func(kind, format string, args ...interface{})) {

	if ev.Reason == "" {
		add("structure", "event %d: reject of query %d without a reason", ev.Seq, q)
		return
	}

	// The capacity-free classification: unlimited capacity, no replicas
	// placed, K never binding. Under it a query classifies as deadline or
	// disconnected exactly when it is statically infeasible — independent of
	// any load the replay cannot see.
	relaxed, _, _ := placement.ClassifyRejection(p, q, placement.RejectionState{
		Avail:        func(graph.NodeID) float64 { return math.Inf(1) },
		HasReplica:   func(workload.DatasetID, graph.NodeID) bool { return false },
		ReplicaCount: func(workload.DatasetID) int { return 0 },
	})

	if opt.Online {
		switch ev.Reason {
		case instrument.ReasonNodeCrashed:
			// Liveness is replayable from crash events and deadline
			// feasibility is load-independent, so this classification must
			// reproduce under infinite capacity with the replayed down set:
			// some demand's every deadline-feasible node is down.
			crashed, _, _ := placement.ClassifyRejection(p, q, placement.RejectionState{
				Avail:        func(graph.NodeID) float64 { return math.Inf(1) },
				HasReplica:   func(workload.DatasetID, graph.NodeID) bool { return false },
				ReplicaCount: func(workload.DatasetID) int { return 0 },
				Down:         func(v graph.NodeID) bool { return down[v] },
			})
			if crashed != instrument.ReasonNodeCrashed {
				add("reject-reason", "event %d: query %d recorded as %q but liveness recomputation says %q",
					ev.Seq, q, ev.Reason, crashed)
			}
			return
		case instrument.ReasonRetryExhausted:
			// Retry budgets are wall-clock engine state a replay cannot
			// reconstruct; trusted, like the capacity-class reasons.
			return
		case instrument.ReasonDeadline, instrument.ReasonDisconnected:
			// Deadline feasibility is load-independent, so these must
			// reproduce exactly under the capacity-free recomputation.
			if relaxed != ev.Reason {
				add("reject-reason", "event %d: query %d recorded as %q but capacity-free recomputation says %q",
					ev.Seq, q, ev.Reason, relaxed)
			}
		case instrument.ReasonCapacity, instrument.ReasonKBound:
			// The load itself cannot be replayed, but a capacity-class
			// reason asserts the named demand had deadline-feasible nodes —
			// which is load-independent and checkable.
			ds := workload.DatasetID(ev.Dataset)
			if int(ds) < 0 || int(ds) >= len(p.Datasets) {
				add("reject-reason", "event %d: query %d reason %q names invalid dataset %d",
					ev.Seq, q, ev.Reason, ev.Dataset)
				return
			}
			feasible := false
			for _, v := range p.Cloud.ComputeNodes() {
				if p.MeetsDeadline(q, ds, v) {
					feasible = true
					break
				}
			}
			if !feasible {
				add("reject-reason", "event %d: query %d recorded as %q on dataset %d, which has no deadline-feasible node",
					ev.Seq, q, ev.Reason, ds)
			}
		}
		return
	}

	reason, ds, node := placement.ClassifyRejection(p, q, placement.RejectionState{
		Avail:        func(v graph.NodeID) float64 { return avail[v] },
		HasReplica:   sol.HasReplica,
		ReplicaCount: sol.ReplicaCount,
		Down:         func(v graph.NodeID) bool { return down[v] },
	})
	if reason != ev.Reason {
		add("reject-reason", "event %d: query %d recorded as %q but replayed state classifies %q",
			ev.Seq, q, ev.Reason, reason)
		return
	}
	if int64(ds) != ev.Dataset || int64(node) != ev.Node {
		add("reject-reason", "event %d: query %d reason %q attributed to dataset %d node %d, replay says dataset %d node %d",
			ev.Seq, q, ev.Reason, ev.Dataset, ev.Node, ds, node)
	}
}

// compareSolutions verifies the replayed state equals the solution the run
// returned: identical replica sets and identical admitted query lists.
func compareSolutions(p *placement.Problem, replayed, final *placement.Solution,
	add func(kind, format string, args ...interface{})) {

	for n := range p.Datasets {
		ds := workload.DatasetID(n)
		a, b := replayed.Replicas[ds], final.Replicas[ds]
		if len(a) != len(b) {
			add("replay", "dataset %d: replay has %d replicas, solution has %d", ds, len(a), len(b))
			continue
		}
		for i := range a { // both sorted by AddReplica
			if a[i] != b[i] {
				add("replay", "dataset %d: replica set mismatch at position %d (replay node %d, solution node %d)",
					ds, i, a[i], b[i])
				break
			}
		}
	}
	ra, fa := replayed.Admitted(), final.Admitted()
	if len(ra) != len(fa) {
		add("replay", "replay admits %d queries, solution admits %d", len(ra), len(fa))
		return
	}
	for i := range ra {
		if ra[i] != fa[i] {
			add("replay", "admitted query mismatch at position %d (replay %d, solution %d)", i, ra[i], fa[i])
			return
		}
	}
}

// CheckTraceRun is CheckTrace with the violations folded into one error (nil
// when the run is clean).
func CheckTraceRun(p *placement.Problem, events []instrument.TraceEvent, opt TraceOptions) error {
	return toError(CheckTrace(p, events, opt))
}
