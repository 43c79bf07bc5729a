package placement

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"edgerep/internal/graph"
	"edgerep/internal/workload"
)

// sameAsReference requires the solution and the reference to hold the same
// admitted list, the same assignments in the same order, and to save to the
// same bytes.
func sameAsReference(t *testing.T, step string, s *Solution, ref *refSolution) {
	t.Helper()
	if got := s.Admitted(); !slices.Equal(got, ref.Admitted) {
		t.Fatalf("%s: Admitted %v, reference %v", step, got, ref.Admitted)
	}
	if !slices.Equal(s.Assignments, ref.Assignments) {
		t.Fatalf("%s: Assignments %v, reference %v", step, s.Assignments, ref.Assignments)
	}
	var got, want bytes.Buffer
	if err := s.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Save wrote\n%s\nreference wrote\n%s", step, got.Bytes(), want.Bytes())
	}
}

// TestSolutionMatchesReference drives Solution and the sort-per-admit
// reference through the same seeded interleavings of Admit, Unadmit, Reassign,
// AddReplica and RemoveReplica, over few enough query IDs that most admissions
// repeat one — what the online engine produces (60 queries, 75 000 offers) —
// and compares them after every step.
func TestSolutionMatchesReference(t *testing.T) {
	const queries, datasets, nodes, steps = 12, 6, 8, 1500
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewSolution(), newRefSolution()
		for i := 0; i < steps; i++ {
			q := workload.QueryID(rng.Intn(queries))
			n := workload.DatasetID(rng.Intn(datasets))
			v := graph.NodeID(rng.Intn(nodes))
			var step string
			switch op := rng.Intn(10); {
			case op < 4:
				var as []Assignment
				for _, d := range rng.Perm(datasets)[:rng.Intn(4)] {
					as = append(as, Assignment{Query: q, Dataset: workload.DatasetID(d), Node: graph.NodeID(rng.Intn(nodes))})
				}
				step = fmt.Sprintf("Admit(%d, %v)", q, as)
				s.Admit(q, as)
				ref.Admit(q, as)
			case op < 6:
				step = fmt.Sprintf("Unadmit(%d)", q)
				s.Unadmit(q)
				ref.Unadmit(q)
			case op < 8:
				// A batch, as Crash hands over: pairs may repeat within it
				// and may name assignments that do not exist.
				moves := []Assignment{{Query: q, Dataset: n, Node: v}}
				for len(moves) < 1+rng.Intn(5) {
					m := Assignment{Query: workload.QueryID(rng.Intn(queries)), Dataset: workload.DatasetID(rng.Intn(datasets)), Node: graph.NodeID(rng.Intn(nodes))}
					if rng.Intn(3) == 0 {
						m.Query, m.Dataset = q, n
					}
					moves = append(moves, m)
				}
				step = fmt.Sprintf("Reassign(%v)", moves)
				found := map[[2]int]bool{}
				for _, m := range moves {
					if ref.Reassign(m.Query, m.Dataset, m.Node) {
						found[[2]int{int(m.Query), int(m.Dataset)}] = true
					}
				}
				if got := s.Reassign(moves...); got != len(found) {
					t.Fatalf("seed %d step %d: %s re-pointed %d pairs, reference %d", seed, i, step, got, len(found))
				}
			case op < 9:
				step = fmt.Sprintf("AddReplica(%d, %d)", n, v)
				s.AddReplica(n, v)
				ref.AddReplica(n, v)
			default:
				step = fmt.Sprintf("RemoveReplica(%d, %d)", n, v)
				s.RemoveReplica(n, v)
				ref.RemoveReplica(n, v)
			}
			sameAsReference(t, fmt.Sprintf("seed %d step %d: %s", seed, i, step), s, ref)
			if s.IsAdmitted(q) != ref.IsAdmitted(q) {
				t.Fatalf("seed %d step %d: %s: IsAdmitted(%d) = %v, reference %v", seed, i, step, q, s.IsAdmitted(q), ref.IsAdmitted(q))
			}
		}
	}

	// What a query admitted more than once does today, spelled out so that a
	// change to it is a decision and not a side effect (ROADMAP, open items).
	t.Run("repeated query", func(t *testing.T) {
		s, ref := NewSolution(), newRefSolution()
		first := []Assignment{{Query: 7, Dataset: 1, Node: 10}, {Query: 7, Dataset: 2, Node: 11}}
		second := []Assignment{{Query: 7, Dataset: 1, Node: 12}}
		other := []Assignment{{Query: 3, Dataset: 1, Node: 10}}
		s.Admit(7, first)
		s.Admit(3, other)
		s.Admit(7, second)
		ref.Admit(7, first)
		ref.Admit(3, other)
		ref.Admit(7, second)
		if got := s.Admitted(); !slices.Equal(got, []workload.QueryID{3, 7, 7}) {
			t.Fatalf("Admitted %v, want [3 7 7]", got)
		}

		// Reassign re-points the first match only: the second admission's
		// assignment for the same dataset stays where it was.
		if got := s.Reassign(Assignment{Query: 7, Dataset: 1, Node: 20}); got != 1 {
			t.Fatalf("Reassign re-pointed %d pairs, want 1", got)
		}
		ref.Reassign(7, 1, 20)
		want := []Assignment{{Query: 7, Dataset: 1, Node: 20}, {Query: 7, Dataset: 2, Node: 11}, {Query: 3, Dataset: 1, Node: 10}, {Query: 7, Dataset: 1, Node: 12}}
		if !slices.Equal(s.Assignments, want) {
			t.Fatalf("after Reassign: Assignments %v, want %v", s.Assignments, want)
		}
		sameAsReference(t, "after Reassign", s, ref)

		// Unadmit drops ONE admission and ALL of the query's assignments: the
		// query is still admitted once, with nothing assigned.
		s.Unadmit(7)
		ref.Unadmit(7)
		if got := s.Admitted(); !slices.Equal(got, []workload.QueryID{3, 7}) {
			t.Fatalf("after Unadmit: Admitted %v, want [3 7]", got)
		}
		if !slices.Equal(s.Assignments, other) {
			t.Fatalf("after Unadmit: Assignments %v, want %v", s.Assignments, other)
		}
		if !s.IsAdmitted(7) {
			t.Fatal("after Unadmit: query 7 no longer admitted")
		}
		sameAsReference(t, "after Unadmit", s, ref)
	})
}

// BenchmarkSolutionAdmit times a fixed number of admits on top of a history of
// n, in the online engine's shape (60 query IDs, two assignments each), and
// fails if an admit on the long history costs more than twice one on the
// short: Admit may not pay for what was admitted before. b.N repeats the
// whole measurement; each size reports its best repeat, which is what the
// gate compares, since one scheduler hiccup in 4096 admits is not a trend.
// The reference — the old Admit — is reported beside it and not gated; it
// fails this gate by two orders of magnitude.
func BenchmarkSolutionAdmit(b *testing.B) {
	const timed = 4096
	type admitter interface {
		Admit(workload.QueryID, []Assignment)
	}
	measure := func(b *testing.B, fresh func() admitter, n int) float64 {
		rng := rand.New(rand.NewSource(1))
		next := func(s admitter) {
			q := workload.QueryID(rng.Intn(60))
			s.Admit(q, []Assignment{{Query: q, Dataset: 0, Node: 1}, {Query: q, Dataset: 1, Node: 2}})
		}
		best := 0.0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := fresh()
			for j := 0; j < n; j++ {
				next(s)
			}
			b.StartTimer()
			start := time.Now()
			for j := 0; j < timed; j++ {
				next(s)
			}
			if ns := float64(time.Since(start).Nanoseconds()) / timed; best == 0 || ns < best {
				best = ns
			}
		}
		b.ReportMetric(best, "ns/admit")
		return best
	}
	perAdmit := map[int]float64{}
	for _, n := range []int{1 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("n=%dk", n>>10), func(b *testing.B) {
			perAdmit[n] = measure(b, func() admitter { return NewSolution() }, n)
		})
	}
	if short, long := perAdmit[1<<10], perAdmit[32<<10]; long > 2*short {
		b.Fatalf("an admit after 32k costs %.0f ns, after 1k %.0f ns: more than 2x", long, short)
	}
	b.Run("reference/n=1k", func(b *testing.B) {
		measure(b, func() admitter { return newRefSolution() }, 1<<10)
	})
}
