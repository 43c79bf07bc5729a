package online

import (
	"fmt"
	"math"
	"testing"

	"edgerep/internal/workload"
)

// singleDemandScan looks at the one demand of query q at the engine's current
// state, node by node and without the engine's candidate tables: a node is
// feasible when it is alive, serves the demand within the query's deadline,
// has the capacity left, and either holds a replica or may open one under
// the K bound. It reports whether any node is feasible and the least priced
// cost need·θ(v) + delay term + replica term among the feasible ones.
func singleDemandScan(e *Engine, q workload.QueryID) (feasible bool, minCost float64) {
	dm := e.p.Queries[q].Demands[0]
	need := e.p.ComputeNeed(q, dm.Dataset)
	size := e.p.Datasets[dm.Dataset].SizeGB
	deadline := e.p.Queries[q].DeadlineSec
	open := e.sol.ReplicaCount(dm.Dataset)
	minCost = math.Inf(1)
	for _, v := range e.p.Cloud.ComputeNodes() {
		if e.live != nil && e.live.IsDown(v) {
			continue
		}
		delay, ok := e.p.EvalDelay(q, dm.Dataset, v)
		if !ok || delay > deadline {
			continue
		}
		if e.usedGHz(v)+need > e.p.Cloud.Capacity(v)*e.opt.maxUtil()+1e-9 {
			continue
		}
		rep := 0.0
		if !e.sol.HasReplica(dm.Dataset, v) {
			if open >= e.p.MaxReplicas {
				continue
			}
			rep = 0.25 * size * float64(open+1) / float64(e.p.MaxReplicas)
		}
		feasible = true
		minCost = math.Min(minCost, need*e.theta(v)+delayPriceWeight*size*(delay/deadline)+rep)
	}
	return feasible, minCost
}

// TestAdmitsEveryFeasibleArrival pins what the engine's admission rule is:
// admit if feasible. The exponential price θ chooses which node serves an
// arrival, never whether it is served — nothing compares the priced cost
// with the query's value. On single-demand arrivals held forever, so the
// load only grows, every arrival some node can serve is admitted even where
// the cheapest such node's priced cost exceeds the query's demanded volume,
// and every rejected arrival has no feasible node at all. A price-vs-value
// admission test, the rule behind the online primal-dual competitive bounds,
// would fail the first half.
func TestAdmitsEveryFeasibleArrival(t *testing.T) {
	for _, seed := range []int64{3, 7, 21} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p, _ := NewTestProblem(t, seed, 300)
			for q := range p.Queries {
				p.Queries[q].Demands = p.Queries[q].Demands[:1]
				// Six times the default compute per GB: capacity binds
				// and prices climb before the K bound and the deadlines
				// turn most arrivals away.
				p.Queries[q].ComputePerGB *= 6
			}
			e := NewEngine(p, len(p.Queries), Options{})
			overpriced, rejected := 0, 0
			for i := range p.Queries {
				q := workload.QueryID(i)
				feasible, minCost := singleDemandScan(e, q)
				dec, err := e.Offer(Arrival{Query: q, AtSec: float64(i)})
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case feasible && !dec.Admitted:
					t.Fatalf("query %d: rejected with a feasible node (least priced cost %v)", q, minCost)
				case !feasible && dec.Admitted:
					t.Fatalf("query %d: admitted on %+v, but no node is feasible", q, dec.Assignments)
				case !dec.Admitted:
					rejected++
				case minCost > p.Queries[q].DemandedVolume(p.Datasets):
					overpriced++
				}
			}
			if overpriced == 0 || rejected == 0 {
				t.Fatalf("load never priced a feasible arrival above its volume (%d) or never rejected one (%d); the test checks nothing", overpriced, rejected)
			}
		})
	}
}
