// The solvers checked by internal/invariant, the independent recomputation
// of the paper's constraints. These tests are black-box (package core_test):
// invariant imports internal/online, which imports core, so a test inside
// package core cannot import it.

package core_test

import (
	"testing"
	"testing/quick"

	"edgerep/internal/core"
	"edgerep/internal/invariant"
)

func TestApproSFeasibleAndAdmitsSomething(t *testing.T) {
	p := core.SingleProblem(t, 1, 40, 10, 3)
	res, err := core.ApproS(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("ApproS solution infeasible: %v", err)
	}
	if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
		t.Fatalf("ApproS violates paper invariants: %v", err)
	}
	if len(res.Solution.Admitted()) == 0 {
		t.Fatal("ApproS admitted nothing on a routine instance")
	}
	if res.Rounds != len(res.Solution.Admitted()) {
		t.Fatalf("rounds %d != admitted %d", res.Rounds, len(res.Solution.Admitted()))
	}
	if res.Rounds+res.Rejected != len(p.Queries) {
		t.Fatalf("rounds %d + rejected %d != queries %d",
			res.Rounds, res.Rejected, len(p.Queries))
	}
}

func TestApproGFeasibleAndAdmitsSomething(t *testing.T) {
	p := core.Problem(t, 2, 40, 12, 3)
	res, err := core.ApproG(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("ApproG solution infeasible: %v", err)
	}
	if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
		t.Fatalf("ApproG violates paper invariants: %v", err)
	}
	if len(res.Solution.Admitted()) == 0 {
		t.Fatal("ApproG admitted nothing on a routine instance")
	}
}

func TestArbitraryOrderStillFeasible(t *testing.T) {
	p := core.Problem(t, 19, 40, 10, 3)
	res, err := core.ApproG(p, core.Options{ArbitraryOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("arbitrary-order solution infeasible: %v", err)
	}
	if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
		t.Fatalf("arbitrary-order solution violates paper invariants: %v", err)
	}
}

// Property: for any seed, ApproG yields a solution that passes the full ILP
// constraint validator, and its volume never exceeds the trivial bound.
func TestApproGAlwaysFeasibleProperty(t *testing.T) {
	f := func(seed int64, kRaw, nqRaw uint8) bool {
		k := 1 + int(kRaw)%7
		nq := 10 + int(nqRaw)%60
		p := core.Problem(t, seed, nq, 10, k)
		res, err := core.ApproG(p, core.Options{})
		if err != nil {
			return false
		}
		if err := res.Solution.Validate(p); err != nil {
			return false
		}
		if err := invariant.CheckSolution(p, res.Solution, res.Solution.Volume(p)); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		return res.Solution.Volume(p) <= p.UpperBoundVolume()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
