// Test-only windows into unexported engine state. The behavioral tests for
// this package live in the black-box online_test package — they assert with
// internal/invariant, whose failover audit imports online, so hosting them
// in-package would be an import cycle — and these shims are what they need
// beyond the public API.

package online

import (
	"slices"
	"testing"

	"edgerep/internal/cluster"
	"edgerep/internal/graph"
	"edgerep/internal/journal"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// NewTestProblem generates the canonical test instance: default topology and
// workload at the given seed, nq queries over 10 datasets, K=3.
func NewTestProblem(t testing.TB, seed int64, nq int) (*placement.Problem, *workload.Workload) {
	t.Helper()
	tc := topology.DefaultConfig()
	tc.Seed = seed
	top := topology.MustGenerate(tc)
	wc := workload.DefaultConfig()
	wc.Seed = seed
	wc.NumDatasets = 10
	wc.NumQueries = nq
	wc.MaxDatasetsPerQuery = 4
	w := workload.MustGenerate(wc, top)
	p, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p, w
}

// ChurnProblem is NewTestProblem with every fifth query demanding its first
// dataset a second time.
func ChurnProblem(t testing.TB, seed int64, nq int) *placement.Problem {
	t.Helper()
	p, _ := NewTestProblem(t, seed, nq)
	for q := 0; q < len(p.Queries); q += 5 {
		dm := p.Queries[q].Demands
		p.Queries[q].Demands = append(slices.Clone(dm), dm[0])
	}
	return p
}

// Inputs is what Churn drives: an Engine, or a V0Journal in front of one.
type Inputs interface {
	Offer(Arrival) (Decision, error)
	Crash(atSec float64, v graph.NodeID) (CrashReport, error)
	Restore(v graph.NodeID) error
}

// Churn drives pass number pass of a deterministic churned history into in:
// every one of the nq queries offered once, a second apart, with 40 s holds,
// so the holds of the pass are live at its end; then the node the pass
// placed the most demands on crashes, crashes again (a no-op, journaled like
// any crash), the runner-up crashes, and both are restored. Passes run in
// order, from 0, each after the last.
func Churn(t testing.TB, in Inputs, nq, pass int) {
	t.Helper()
	var load []int // demands placed, by node
	for q := 0; q < nq; q++ {
		dec, err := in.Offer(Arrival{Query: workload.QueryID(q), AtSec: float64(pass*nq + q), HoldSec: 40})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range dec.Assignments {
			for int(a.Node) >= len(load) {
				load = append(load, 0)
			}
			load[a.Node]++
		}
	}
	var busiest [2]graph.NodeID
	for i := range busiest {
		best := -1
		for v, n := range load {
			if n > 0 && (best == -1 || n > load[best]) {
				best = v
			}
		}
		if best == -1 {
			t.Fatalf("pass %d placed demands on fewer than %d nodes", pass, i+1)
		}
		busiest[i], load[best] = graph.NodeID(best), 0
	}
	at := float64((pass+1)*nq) - 0.5
	for _, v := range []graph.NodeID{busiest[0], busiest[0], busiest[1]} {
		if _, err := in.Crash(at, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range busiest {
		if err := in.Restore(v); err != nil {
			t.Fatal(err)
		}
	}
}

// ChurnJournals journals the three passes of Churn twice over the same
// problem — into dirs[0] through the v0 reference encoder, into dirs[1] by
// the engine in v1 — snapshotting every snapEvery records (0: never), and
// returns the directories and the two engines' final states.
func ChurnJournals(t testing.TB, seed int64, nq, snapEvery int) (dirs [2]string, live [2]*EngineState) {
	t.Helper()
	for i := range dirs {
		dirs[i] = t.TempDir()
		j, err := journal.Open(dirs[i], journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ChurnProblem(t, seed, nq), 3*nq, Options{Journal: j, SnapshotEvery: snapEvery})
		var in Inputs = e
		if i == 0 {
			in = JournalV0(e)
		}
		for pass := 0; pass < 3; pass++ {
			Churn(t, in, nq, pass)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		live[i] = e.StateDump()
	}
	return dirs, live
}

// TestProblem returns the problem the engine prices against.
func (e *Engine) TestProblem() *placement.Problem { return e.p }

// TestUsedGHz returns the engine's current allocation on v.
func (e *Engine) TestUsedGHz(v graph.NodeID) float64 { return e.usedGHz(v) }

// TestReleaseNodes returns the node of every scheduled capacity release.
func (e *Engine) TestReleaseNodes() []graph.NodeID {
	nodes := make([]graph.NodeID, len(e.releases))
	for i, r := range e.releases {
		nodes[i] = r.node
	}
	return nodes
}

// TestLoadState installs a canonical state dump, as recovery does.
func (e *Engine) TestLoadState(st *EngineState) { e.loadState(st) }

// Engine exposes the standby engine for read-only inspection (state dumps,
// decision counts). Mutating it directly would desynchronize the replica;
// only Apply and Promote may advance it.
func (r *Rehydrator) Engine() *Engine { return r.e }
