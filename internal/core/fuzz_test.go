package core_test

import (
	"testing"

	"edgerep/internal/core"
	"edgerep/internal/invariant"
)

// FuzzApproGInvariants drives Appro-G (and Appro-S on the single-dataset
// restriction) over fuzzed instance shapes and checks every solution against
// the independent paper-constraint recomputation in internal/invariant, and
// result and trace against the reference ascent (reference_test.go).
// Under plain `go test` the seed corpus runs as a regression suite; under
// `go test -fuzz=FuzzApproGInvariants` the engine explores new shapes.
func FuzzApproGInvariants(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40), uint8(10))
	f.Add(int64(7), uint8(1), uint8(10), uint8(1))
	f.Add(int64(29), uint8(7), uint8(60), uint8(20))
	f.Add(int64(-5), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, nqRaw, ndRaw uint8) {
		k := 1 + int(kRaw)%7
		nq := 1 + int(nqRaw)%80
		nd := 1 + int(ndRaw)%20

		p := core.Problem(t, seed, nq, nd, k)
		res, err := core.ApproG(p, core.Options{})
		if err != nil {
			t.Fatalf("ApproG(seed=%d nq=%d nd=%d k=%d): %v", seed, nq, nd, k, err)
		}
		core.RequireMatchesReference(t, p, core.Options{}, "appro-g")
		vol := res.Solution.Volume(p)
		if err := invariant.CheckSolution(p, res.Solution, vol); err != nil {
			t.Fatalf("ApproG(seed=%d nq=%d nd=%d k=%d) violates invariants: %v",
				seed, nq, nd, k, err)
		}
		if vol > p.UpperBoundVolume()+1e-9 {
			t.Fatalf("volume %v exceeds trivial bound %v", vol, p.UpperBoundVolume())
		}

		sp := core.SingleProblem(t, seed, nq, nd, k)
		sres, err := core.ApproS(sp, core.Options{})
		if err != nil {
			t.Fatalf("ApproS(seed=%d nq=%d nd=%d k=%d): %v", seed, nq, nd, k, err)
		}
		core.RequireMatchesReference(t, sp, core.Options{}, "appro-s")
		if err := invariant.CheckSolution(sp, sres.Solution, sres.Solution.Volume(sp)); err != nil {
			t.Fatalf("ApproS(seed=%d nq=%d nd=%d k=%d) violates invariants: %v",
				seed, nq, nd, k, err)
		}
	})
}
