package main

import (
	"time"

	"edgerep/internal/baselines"
	"edgerep/internal/core"
	"edgerep/internal/instrument"
	"edgerep/internal/invariant"
	"edgerep/internal/placement"
	"edgerep/internal/server"
)

// solvesPerBuild is how many solves the home section makes on one build of
// the instance before it builds it again: set-up there is that build, and its
// readings are spread over the run like every other metric's.
const solvesPerBuild = 10

// solveSection times the paper's batch algorithm, core.ApproG — the offline
// plan the online engine approximates. It is the home section of batch-solve.
func (r *runner) solveSection(budget time.Duration) error {
	s := &solver{r: r, id: r.nextReq()}
	err := r.rounds(r.sp.solves, budget, func(i int) error {
		if i%solvesPerBuild == 0 {
			if err := s.build(); err != nil {
				return err
			}
		}
		return s.solve()
	})
	if err != nil {
		return err
	}
	return s.finish()
}

// solveGuard is the solve section of the other workloads, as steps to take
// between their own rounds: a few solves on one build.
func (r *runner) solveGuard() []func() error {
	s := &solver{r: r, id: r.nextReq()}
	steps := []func() error{s.build}
	for i := 0; i < r.sp.solves; i++ {
		steps = append(steps, s.solve)
	}
	return append(steps, s.finish)
}

// solver is a series of core.ApproG solves of one problem.
type solver struct {
	r    *runner
	id   int64
	p    *placement.Problem
	last *core.Result
	n    int
	// ascents and bundles sum core's own counters over the solves.
	ascents, bundles int64
}

// build builds the instance the solves run on: the set-up of batch-solve.
func (s *solver) build() error {
	r := s.r
	r.probeCPU()
	m := r.tr.begin("server.BuildInstance", mark{}, s.id)
	p, err := server.BuildInstance(r.sp.life)
	d := r.tr.end(m)
	if err != nil {
		return err
	}
	s.p = p
	if r.sp.home == homeSolve {
		r.s.add("setup_s", d.Seconds())
	}
	return nil
}

func (s *solver) solve() error {
	r := s.r
	var before map[string]int64
	if r.traced {
		before = instrument.Snapshot()
	}
	r.probeCPU()
	m := r.tr.begin("core.ApproG", mark{}, s.id)
	res, err := core.ApproG(s.p, core.Options{})
	d := r.tr.end(m)
	if err != nil {
		return err
	}
	if r.traced {
		after := instrument.Snapshot()
		s.ascents += after["core.ascent_rounds"] - before["core.ascent_rounds"]
		s.bundles += after["core.bundles_priced"] - before["core.bundles_priced"]
	}
	s.last = res
	s.n++
	r.count(len(s.p.Queries))
	r.s.add("solve_s", d.Seconds())
	if r.traced {
		r.s.add("core.approg_s", d.Seconds())
	}
	return nil
}

// finish verifies the last solution — it satisfies every ILP constraint with
// the volume it claims, and beats the greedy baseline as the paper reports —
// and reads what the traced run wants of the solves.
func (s *solver) finish() error {
	r, p := s.r, s.p
	queries := s.n * len(p.Queries)
	volume := s.last.Solution.Volume(p)
	if err := invariant.CheckSolution(p, s.last.Solution, volume); err != nil {
		r.fail(queries, "Appro-G solution: %v", err)
	}
	m := r.tr.begin("baselines.GreedyG", mark{}, s.id)
	greedy, err := baselines.GreedyG(p)
	greedyS := r.tr.end(m).Seconds()
	if err != nil {
		return err
	}
	gv := greedy.Volume(p)
	if volume < gv {
		r.fail(queries, "Appro-G admits %.1f GB, Greedy-G %.1f GB", volume, gv)
	}
	if !r.traced {
		return nil
	}
	r.s.add("baselines.greedy_s", greedyS)
	r.s.add("core.volume_gb", volume)
	if gv > 0 {
		r.s.add("core.volume_vs_greedy", volume/gv)
	}
	r.s.add("core.ascent_rounds", float64(s.ascents)/float64(s.n))
	r.s.add("core.bundles_priced", float64(s.bundles)/float64(s.n))
	if r.sp.home != homeSolve {
		return nil
	}
	// The special case: the same instance with single-dataset queries.
	single := r.sp.life
	single.F = 1
	ps, err := server.BuildInstance(single)
	if err != nil {
		return err
	}
	m = r.tr.begin("core.ApproS", mark{}, s.id)
	res, err := core.ApproS(ps, core.Options{})
	r.s.add("core.appros_s", r.tr.end(m).Seconds())
	if err != nil {
		return err
	}
	r.count(len(ps.Queries))
	if err := invariant.CheckSolution(ps, res.Solution, res.Solution.Volume(ps)); err != nil {
		r.fail(len(ps.Queries), "Appro-S solution: %v", err)
	}
	return nil
}
