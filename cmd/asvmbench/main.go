// Command asvmbench regenerates the paper's evaluation: every table and
// figure of "A New Approach to Distributed Memory Management in the Mach
// Microkernel" (USENIX '96), plus the ablations described in DESIGN.md.
//
// Independent experiment cells (each its own seeded simulation) run on a
// worker pool sized by -workers; parallelism changes wall-clock time only,
// never a simulated metric.
//
// Usage:
//
//	asvmbench -list                  # print the valid -exp names
//	asvmbench -exp table1            # one experiment
//	asvmbench -exp all -quick        # everything, reduced sweeps
//	asvmbench -exp table3 -iters 10  # EM3D with 10 iterations (scaled)
//	asvmbench -chaos                 # degradation sweep under message faults
//	asvmbench -crash                 # degradation sweep under node crashes
//	asvmbench -scale                 # 64-1024 node zipf scale-out sweep
//	asvmbench -exp kv                # portable kv workload (netdemo's sim twin)
//	asvmbench -explore               # schedule-exploration smoke (asvmcheck)
//	asvmbench -workers 1             # serial cells (for profiling a cell)
//	asvmbench -json BENCH.json       # machine-readable perf snapshot only
//	asvmbench -cpuprofile cpu.pb.gz  # pprof the run (see EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"asvm/internal/exp"
	"asvm/internal/explore"
	"asvm/internal/workload"
	"asvm/internal/xport"
)

func main() {
	var (
		which   = flag.String("exp", "all", "experiment: table1|fig10|fig11|table2|table3|dist|ablations|chaos|crash|scale|kv|all")
		chaos   = flag.Bool("chaos", false, "run the chaos degradation sweep (same as -exp chaos)")
		crash   = flag.Bool("crash", false, "run the crash-stop degradation sweep (same as -exp crash)")
		scale   = flag.Bool("scale", false, "run the 64-1024 node scale-out sweep (same as -exp scale)")
		explOpt = flag.Bool("explore", false, "run the schedule-exploration smoke pass and exit")
		quick   = flag.Bool("quick", false, "reduced sweeps (small node counts, few iterations)")
		iters   = flag.Int("iters", 10, "EM3D iterations (results are scaled to the paper's 100)")
		seed    = flag.Uint64("seed", 1, "workload RNG seed")
		workers = flag.Int("workers", 0, "parallel experiment cells (0 = GOMAXPROCS, 1 = serial)")
		jsonOut = flag.String("json", "", "write a machine-readable benchmark snapshot to this path and exit")
		list    = flag.Bool("list", false, "list the valid -exp experiment names and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf = flag.String("memprofile", "", "write an allocation profile to this path at exit")
		rto     = flag.Duration("rto", 0, "chaos/crash sweeps: initial retransmit timeout (0 = calibrated 4ms)")
		rtoMax  = flag.Duration("rtomax", 0, "chaos/crash sweeps: retransmit backoff cap (0 = calibrated 64ms)")
		retries = flag.Int("retries", 0, "chaos/crash sweeps: retransmits before a peer is declared down (0 = calibrated 30)")
	)
	flag.Parse()

	// Reliability-layer tuning for the chaos and crash sweeps. Zero values
	// keep the calibrated defaults, so plain runs are unchanged.
	workload.ReliableCfg = xport.ReliableConfig{
		RTO:        *rto,
		MaxRTO:     *rtoMax,
		MaxRetries: *retries,
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accurate allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, n := range exp.ExpNames() {
			fmt.Println(n)
		}
		return
	}

	if *jsonOut != "" {
		t0 := time.Now()
		snap, err := exp.CollectSnapshot(*seed, *workers, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: snapshot failed: %v\n", err)
			os.Exit(1)
		}
		if err := snap.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (engine %.0f events/sec, %.1fs total)\n",
			*jsonOut, snap.EngineEventsPerSec, time.Since(t0).Seconds())
		return
	}

	nodesSweep := []int{1, 2, 4, 8, 16, 32, 64}
	readerSweep := []int{1, 2, 4, 8, 16, 32, 64}
	chainSweep := []int{1, 2, 4, 8, 12, 16}
	em3dSizes := []int{64000, 256000, 1024000}
	em3dNodes := []int{1, 2, 4, 8, 16, 32, 64}
	if *quick {
		nodesSweep = []int{1, 2, 4, 8}
		readerSweep = []int{1, 2, 8}
		chainSweep = []int{1, 2, 4}
		em3dSizes = []int{64000}
		em3dNodes = []int{1, 2, 4, 8}
		if *iters > 3 {
			*iters = 3
		}
	}

	run := func(name string, fn func() error) {
		t0 := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %.1fs]\n\n", name, time.Since(t0).Seconds())
	}

	if *explOpt {
		// Schedule exploration is a protocol check, not an experiment cell:
		// it perturbs schedules, so its runs never feed the result tables.
		run("explore", func() error { return explore.Smoke(os.Stdout, 200, *seed) })
		return
	}
	if *chaos {
		*which = "chaos"
	}
	if *crash {
		*which = "crash"
	}
	if *scale {
		*which = "scale"
	}
	all := *which == "all"
	if _, err := exp.ParseExp(*which); err != nil {
		fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
		os.Exit(2)
	}
	if all || *which == "table1" {
		run("table1", func() error { return exp.Table1(os.Stdout, *seed, *workers) })
	}
	if all || *which == "fig10" {
		run("fig10", func() error { return exp.Figure10(os.Stdout, readerSweep, *seed, *workers) })
	}
	if all || *which == "fig11" {
		run("fig11", func() error { return exp.Figure11(os.Stdout, chainSweep, *seed, *workers) })
	}
	if all || *which == "table2" {
		run("table2", func() error { return exp.Table2(os.Stdout, nodesSweep, *seed, *workers) })
	}
	if all || *which == "table3" {
		run("table3", func() error { return exp.Table3(os.Stdout, em3dSizes, em3dNodes, *iters, *seed, *workers) })
	}
	if all || *which == "dist" {
		run("dist", func() error { return exp.Distribution(os.Stdout, 8, 16, 4, *seed, *workers) })
	}
	// The chaos sweep is opt-in (not part of "all"): it measures the
	// fault-injected configurations, so its output is additional to — never
	// mixed into — the paper-reproduction tables in results_full.txt.
	if *which == "chaos" {
		run("chaos", func() error { return exp.Chaos(os.Stdout, exp.ChaosRates, *seed, *workers, *quick) })
	}
	// Likewise opt-in: the crash sweep measures crash-stop degradation, not
	// the paper's fault-free numbers.
	if *which == "crash" {
		run("crash", func() error { return exp.Crash(os.Stdout, *seed, *workers, *quick) })
	}
	// Opt-in as well: the scale sweep runs 64-1024-node machines, beyond the
	// paper's evaluation envelope, so it never lands in results_full.txt.
	if *which == "scale" {
		run("scale", func() error { return exp.Scale(os.Stdout, *seed, *workers, *quick) })
	}
	// Opt-in: the kv workload demonstrates the portable application layer
	// (the simulated twin of `netdemo -workload kv`), not a paper table.
	if *which == "kv" {
		run("kv", func() error { return exp.KV(os.Stdout, *seed, *workers, *quick) })
	}
	if all || *which == "ablations" {
		run("ablation-forwarding", func() error { return exp.AblationForwarding(os.Stdout, 8, 6, *seed, *workers) })
		run("ablation-transport", func() error { return exp.AblationTransport(os.Stdout, *seed, *workers) })
		run("ablation-internode-paging", func() error { return exp.AblationInternodePaging(os.Stdout, *seed, *workers) })
		run("ablation-chain-threads", func() error { return exp.AblationChainThreads(os.Stdout, *seed, *workers) })
	}
}
