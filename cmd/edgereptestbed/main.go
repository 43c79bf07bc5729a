// Command edgereptestbed regenerates the paper's testbed figures (Figs. 7–8)
// on the emulated geo-distributed testbed: real TCP nodes on loopback with
// injected inter-region latencies (San Francisco, New York, Toronto,
// Singapore + 16 metro cloudlets), real usage-record replicas, and real
// distributed query execution.
//
// Usage:
//
//	edgereptestbed -fig 7            # Appro-S vs Popularity-S across F
//	edgereptestbed -fig 8 -quick     # Appro-G vs Popularity-G across K
//	edgereptestbed -describe         # print the Fig. 6 testbed layout
//	edgereptestbed -fig 7 -noexec    # tables only, skip TCP execution
//	edgereptestbed -fig 8 -quick -trace fig8.jsonl  # admission trace (JSONL)
//	edgereptestbed -http localhost:8080             # live ops endpoint
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"edgerep/internal/experiments"
	"edgerep/internal/instrument"
	"edgerep/internal/ops"
	"edgerep/internal/testbed"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 7, 8, or all")
		quick    = flag.Bool("quick", false, "reduced seeds and sweep points")
		noexec   = flag.Bool("noexec", false, "skip real TCP execution (tables only)")
		describe = flag.Bool("describe", false, "print the emulated testbed layout (paper Fig. 6) and exit")
		scale    = flag.Float64("latency-scale", 0, "wall-clock scale of injected latencies (0 = config default)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		stats    = flag.Bool("stats", false, "collect runtime counters (cache hits, ascent rounds) and print them to stderr on exit")
		traceOut = flag.String("trace", "", "write the admission trace (deterministic JSONL) to this file")
		httpAddr = flag.String("http", "", "serve the live ops endpoint (/metrics, /progress, /debug/pprof) on this address, e.g. localhost:8080")
		jdir     = flag.String("journal", "", "journal finished sweep cells to a WAL in this directory (crash-consistent; resume with -resume)")
		resume   = flag.Bool("resume", false, "resume a killed journaled run: replay finished model cells from -journal, run the rest (real execution is not repeated for replayed cells)")
	)
	flag.Parse()
	if *stats {
		instrument.Enable()
		defer func() {
			fmt.Fprint(os.Stderr, instrument.FormatSnapshot(instrument.Snapshot()))
		}()
	}
	if *traceOut != "" {
		closeTrace, err := instrument.OpenTraceFile(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgereptestbed: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := closeTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "edgereptestbed: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	if *resume && *jdir == "" {
		fmt.Fprintln(os.Stderr, "edgereptestbed: -resume needs -journal")
		os.Exit(2)
	}
	if *jdir != "" {
		sj, err := experiments.OpenSweepJournal(*jdir, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgereptestbed: %v\n", err)
			os.Exit(1)
		}
		experiments.SetSweepJournal(sj)
		defer func() {
			experiments.SetSweepJournal(nil)
			if err := sj.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "edgereptestbed: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	if *httpAddr != "" {
		addr, _, err := ops.Serve(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgereptestbed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "edgereptestbed: ops endpoint on http://%s\n", addr)
	}

	if *describe {
		cfg := testbed.DefaultClusterConfig()
		cfg.Latency.Scale = 0.001
		c, err := testbed.StartCluster(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgereptestbed: %v\n", err)
			os.Exit(1)
		}
		defer c.Close()
		fmt.Println(c.Describe())
		for i := 0; i < c.NumNodes(); i++ {
			n := c.Node(i)
			fmt.Printf("  %-14s %-14s %s\n", n.Name, n.Region, n.Addr())
		}
		return
	}

	cfg := experiments.DefaultTestbedConfig()
	if *quick {
		cfg = experiments.QuickTestbedConfig()
	}
	if *noexec {
		cfg.Execute = false
	}
	if *scale > 0 {
		cfg.LatencyScale = *scale
	}

	run := func(name string, fn func(experiments.TestbedConfig) (*experiments.TestbedResult, error)) {
		res, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgereptestbed: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(res.Volume.CSV())
			fmt.Println()
			fmt.Print(res.Throughput.CSV())
			fmt.Println()
		} else {
			fmt.Println(res.Volume.Render())
			fmt.Println(res.Throughput.Render())
		}
		if cfg.Execute {
			fmt.Println("measured execution (first seed, real TCP + injected WAN latencies):")
			var algos []string
			for a := range res.Exec {
				algos = append(algos, a)
			}
			sort.Strings(algos)
			for _, a := range algos {
				var xs []int
				for x := range res.Exec[a] {
					xs = append(xs, x)
				}
				sort.Ints(xs)
				for _, x := range xs {
					st := res.Exec[a][x]
					fmt.Printf("  %-14s x=%d  queries=%-3d mean=%-12v max=%-12v violations=%d records=%d\n",
						a, x, st.Queries, st.MeanLatency, st.MaxLatency, st.Violations, st.RecordsScanned)
				}
			}
			fmt.Println()
		}
	}

	switch *fig {
	case "7":
		run("Fig 7", experiments.Fig7)
	case "8":
		run("Fig 8", experiments.Fig8)
	case "all":
		run("Fig 7", experiments.Fig7)
		run("Fig 8", experiments.Fig8)
	default:
		fmt.Fprintf(os.Stderr, "edgereptestbed: unknown figure %q (want 7, 8, or all)\n", *fig)
		os.Exit(2)
	}
}
