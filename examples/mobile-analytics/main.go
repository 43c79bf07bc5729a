// Mobile-analytics scenario: the paper's testbed experiment end to end. A
// synthetic mobile-app-usage trace (the stand-in for the paper's 3M-user
// trace) is partitioned into datasets by creation time, the primal-dual
// algorithm decides replica placement on an emulated geo-distributed
// cluster (real TCP nodes with injected WAN latencies), and real analytic
// queries — most popular apps, hourly usage, per-app patterns — execute
// against the placed replicas with measured wall-clock latencies.
package main

import (
	"fmt"
	"log"

	"edgerep/internal/analytics"
	"edgerep/internal/cluster"
	"edgerep/internal/core"
	"edgerep/internal/experiments"
	"edgerep/internal/placement"
	"edgerep/internal/testbed"
	"edgerep/internal/workload"
)

func main() {
	// 1. Trace: Zipf app popularity, diurnal activity, 90 days.
	tc := workload.DefaultTraceConfig()
	tc.Records = 12000
	trace, err := workload.GenerateTrace(tc)
	if err != nil {
		log.Fatal(err)
	}
	const numDatasets = 8
	parts, err := workload.PartitionTrace(trace, numDatasets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d records split into %d time-ordered datasets\n", len(trace), numDatasets)

	// 2. Model the emulated cluster and decide placement with Appro-G.
	lat := testbed.DefaultLatencyModel()
	top := experiments.BuildTestbedTopology(lat, 1)
	wc := workload.DefaultConfig()
	wc.NumDatasets = numDatasets
	wc.NumQueries = 12
	wc.MaxDatasetsPerQuery = 3
	wc.DeadlinePerGB = 0.06
	w := workload.MustGenerate(wc, top)
	prob, err := placement.NewProblem(cluster.New(top), w, 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.ApproG(prob, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement: %v\n", res.Solution.Summarize(prob))

	// 3. Start the emulated testbed (4 DC regions + 16 metro cloudlets)
	//    with latencies compressed 100× for a fast demo.
	ccfg := testbed.DefaultClusterConfig()
	ccfg.Latency.Scale = 0.01
	tb, err := testbed.StartCluster(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	fmt.Println(tb.Describe())

	// 4. Push replicas (real records over real sockets).
	for n, nodes := range res.Solution.Replicas {
		for _, v := range nodes {
			if err := tb.Place(int(v), int(n), parts[n]); err != nil {
				log.Fatal(err)
			}
		}
	}

	// 5. Execute the paper's three analyses for each admitted query.
	perQuery := map[workload.QueryID][]placement.Assignment{}
	for _, a := range res.Solution.Assignments {
		perQuery[a.Query] = append(perQuery[a.Query], a)
	}
	kinds := []analytics.Request{
		{Kind: analytics.TopApps, K: 5},
		{Kind: analytics.HourlyHistogram},
		{Kind: analytics.AppUsagePattern, AppID: 0},
	}
	for i, q := range res.Solution.Admitted() {
		plan := testbed.QueryPlan{HomeIndex: int(prob.Queries[q].Home), Query: kinds[i%len(kinds)]}
		for _, a := range perQuery[q] {
			plan.Targets = append(plan.Targets, struct {
				Dataset   int
				NodeIndex int
			}{Dataset: int(a.Dataset), NodeIndex: int(a.Node)})
		}
		ev, err := tb.Evaluate(plan)
		if err != nil {
			log.Fatal(err)
		}
		switch plan.Query.Kind {
		case analytics.TopApps:
			fmt.Printf("query %2d (top apps, %d datasets, %v): #1 app = %d with %d events\n",
				q, len(plan.Targets), ev.Latency, ev.Result.TopApps[0].AppID, ev.Result.TopApps[0].Count)
		case analytics.HourlyHistogram:
			peak, peakH := int64(0), 0
			for h, n := range ev.Result.HourCounts {
				if n > peak {
					peak, peakH = n, h
				}
			}
			fmt.Printf("query %2d (hourly usage, %d datasets, %v): peak hour %02d:00 with %d events\n",
				q, len(plan.Targets), ev.Latency, peakH, peak)
		case analytics.AppUsagePattern:
			var total int64
			for _, n := range ev.Result.HourCounts {
				total += n
			}
			fmt.Printf("query %2d (app 0 pattern, %d datasets, %v): %d events across the day\n",
				q, len(plan.Targets), ev.Latency, total)
		}
	}
}
