// Online-admission scenario: queries arrive as a stream and must be
// admitted or rejected irrevocably, holding compute only while they run —
// the dynamic setting the paper's §2.4 points toward. The example compares
// three online policies (lazy replication, forecast-driven proactive
// replication, and headroom-reserving admission) against the offline
// optimum-ish Appro-G that sees the whole workload at once.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

func main() {
	top := topology.MustGenerate(topology.DefaultConfig())
	wc := workload.DefaultConfig()
	wc.NumDatasets = 10
	wc.NumQueries = 80
	wc.MaxDatasetsPerQuery = 4
	w := workload.MustGenerate(wc, top)

	mkProblem := func() *placement.Problem {
		p, err := placement.NewProblem(cluster.New(top), w, 3)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}

	// Poisson arrivals at 2 queries/sec, each holding its allocation for
	// an exponential service time averaging 8s.
	rng := rand.New(rand.NewSource(42))
	type arrival struct{ at, hold float64 }
	arrivals := make([]arrival, len(w.Queries))
	t := 0.0
	for i := range arrivals {
		t += rng.ExpFloat64() / 2.0
		arrivals[i] = arrival{at: t, hold: rng.ExpFloat64() * 8}
	}

	policies := []struct {
		name string
		opts online.Options
	}{
		{"lazy replication", online.Options{}},
		{"forecast proactive", online.Options{Forecast: w.Queries}},
		{"20% headroom", online.Options{MaxUtilization: 0.8}},
	}
	for _, pol := range policies {
		e := online.NewEngine(mkProblem(), len(w.Queries), pol.opts)
		for i := range w.Queries {
			if _, err := e.Offer(online.Arrival{
				Query:   workload.QueryID(i),
				AtSec:   arrivals[i].at,
				HoldSec: arrivals[i].hold,
			}); err != nil {
				log.Fatal(err)
			}
		}
		r := e.Result()
		fmt.Printf("%-20s admitted %2d/%d  volume %6.1f GB  peak util %3.0f%%\n",
			pol.name, r.Admitted, len(w.Queries), r.VolumeAdmitted, 100*r.PeakUtilization)
	}

	// Offline reference: sees everything, holds forever (conservative).
	p := mkProblem()
	res, err := core.ApproG(p, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s admitted %2d/%d  volume %6.1f GB  (offline, allocations never released)\n",
		"offline Appro-G", len(res.Solution.Admitted()), len(w.Queries), res.Solution.Volume(p))
}
