package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"asvm/internal/machine"
	"asvm/internal/workload"
)

// Snapshot is a machine-readable record of one asvmbench run: the real
// wall-clock performance of the simulator plus the simulated metrics of the
// main paper artifacts. Snapshots are written by `asvmbench -json out.json`
// and committed as BENCH_*.json files, so the simulator's perf trajectory
// across PRs is tracked next to the reproduction quality. The simulated
// metrics are deterministic given the seed; the wall-clock fields are not
// (they measure this machine, this build).
type Snapshot struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`

	// Simulator speed: events executed per wall-clock second on a busy
	// 16-node coherence workload (the cost of the reproduction itself).
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	EngineEvents       uint64  `json:"engine_events"`

	// Hot-path allocation guards, allocs per operation (contract: 0).
	EngineAllocsPerOp  float64 `json:"engine_allocs_per_op"`
	MsgPathAllocsPerOp float64 `json:"msgpath_allocs_per_op"`

	// Paper artifacts, in simulated units.
	Table1MS    map[string][]float64 `json:"table1_ms"`    // system -> fault ms per Table 1 scenario
	Table2Nodes []int                `json:"table2_nodes"` // node counts for the Table2MBs columns
	Table2MBs   map[string][]float64 `json:"table2_mbps"`  // series -> MB/s per node count
	Fig11FitMS  map[string][]float64 `json:"fig11_fit_ms"` // system -> [lb, la] of latency = lb + n*la

	// Crash-stop degradation (simulated, deterministic): the quick crash
	// sweep's 1-crashed-node / 1%-drop cell, the sweep's stress point. Ops
	// are completed operations (crash-free cell vs degraded cell); the rest
	// count what the crash cost.
	CrashOpsBaseline float64 `json:"crash_ops_baseline"`
	CrashOpsDegraded float64 `json:"crash_ops_degraded"`
	CrashAborted     int64   `json:"crash_faults_aborted"`
	CrashRedrives    int64   `json:"crash_fault_redrives"`
	CrashOwnLost     int64   `json:"crash_ownership_lost"`
	CrashPagesLost   int64   `json:"crash_pages_lost"`

	// Scale-out sweep (simulated, deterministic): the machine-size ladder's
	// fault latency and ring-fallback profile. One entry per node count; the
	// fallback rate is the fraction of data requests resolved by the global
	// ring scan (the O(n) path the hint caches keep rare).
	ScaleNodes        []int     `json:"scale_nodes"`
	ScaleFaultP50MS   []float64 `json:"scale_fault_p50_ms"`
	ScaleFaultP99MS   []float64 `json:"scale_fault_p99_ms"`
	ScaleFallbackRate []float64 `json:"scale_fallback_rate"`
	ScaleRingScanHops []int64   `json:"scale_ring_scan_hops"`

	// WallSeconds is the wall-clock time each artifact sweep took with the
	// configured worker count.
	WallSeconds map[string]float64 `json:"wall_seconds"`
}

// EngineThroughput runs a busy multi-node coherence workload and reports
// the engine's wall-clock event rate — the single number the engine
// microbenchmarks optimize for, measured on a realistic protocol mix
// instead of an empty callback.
func EngineThroughput(seed uint64) (eventsPerSec float64, events uint64, err error) {
	start := time.Now()
	_, c, err := distRun(machine.SysASVM, 16, 32, 4, seed)
	if err != nil {
		return 0, 0, err
	}
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	return float64(c.Eng.Executed) / wall, c.Eng.Executed, nil
}

// CollectSnapshot measures the snapshot artifact set. quick shrinks the
// sweeps the same way asvmbench -quick does.
func CollectSnapshot(seed uint64, workers int, quick bool) (*Snapshot, error) {
	nodes := []int{1, 2, 4, 8, 16, 32, 64}
	chains := []int{1, 2, 4, 8, 12, 16}
	if quick {
		nodes = []int{1, 2, 4, 8}
		chains = []int{1, 2, 4}
	}
	snap := &Snapshot{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		Seed:        seed,
		Quick:       quick,
		Table1MS:    map[string][]float64{},
		Table2Nodes: nodes,
		Table2MBs:   map[string][]float64{},
		Fig11FitMS:  map[string][]float64{},
		WallSeconds: map[string]float64{},
	}
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("snapshot %s: %w", name, err)
		}
		snap.WallSeconds[name] = time.Since(t0).Seconds()
		return nil
	}

	if err := timed("engine", func() error {
		eps, n, err := EngineThroughput(seed)
		if err != nil {
			return err
		}
		snap.EngineEventsPerSec, snap.EngineEvents = eps, n
		snap.EngineAllocsPerOp = EngineAllocsPerOp()
		snap.MsgPathAllocsPerOp = MsgPathAllocsPerOp()
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("table1", func() error {
		lats, err := Table1Latencies(seed, workers)
		if err != nil {
			return err
		}
		for sys, ds := range lats {
			for _, d := range ds {
				snap.Table1MS[sys.String()] = append(snap.Table1MS[sys.String()],
					float64(d)/float64(time.Millisecond))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("table2", func() error {
		rates, err := Table2Rates(nodes, seed, workers)
		if err != nil {
			return err
		}
		for series, vs := range rates {
			snap.Table2MBs[series] = vs
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("fig11", func() error {
		systems := []machine.System{machine.SysASVM, machine.SysXMM}
		lats, err := RunCells(workers, 2*len(chains), func(i int) (time.Duration, error) {
			return workload.MeasureChainFault(systems[i%2], chains[i/2], seed)
		})
		if err != nil {
			return err
		}
		for si, sys := range systems {
			ys := make([]float64, len(chains))
			for ci := range chains {
				ys[ci] = float64(lats[2*ci+si]) / float64(time.Millisecond)
			}
			lb, la := fitLine(chains, ys)
			snap.Fig11FitMS[sys.String()] = []float64{lb, la}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("scale", func() error {
		// The machine-size ladder only (the cache-sizing rows are a report
		// detail, not a trajectory worth tracking per PR).
		var ladder []ScaleCell
		for _, cell := range ScaleCells(seed, quick) {
			if cell.DynCacheSize == 0 {
				ladder = append(ladder, cell)
			}
		}
		results, err := RunCells(workers, len(ladder), func(i int) (ScaleResult, error) {
			return RunScaleCell(ladder[i])
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			snap.ScaleNodes = append(snap.ScaleNodes, r.Cell.Nodes)
			snap.ScaleFaultP50MS = append(snap.ScaleFaultP50MS, float64(r.P50)/float64(time.Millisecond))
			snap.ScaleFaultP99MS = append(snap.ScaleFaultP99MS, float64(r.P99)/float64(time.Millisecond))
			snap.ScaleFallbackRate = append(snap.ScaleFallbackRate, r.FallbackRate())
			snap.ScaleRingScanHops = append(snap.ScaleRingScanHops, r.RingScanHops)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("crash", func() error {
		cells := []CrashCell{
			{Crashed: 0, Rate: 0.01},
			{Crashed: 1, Rate: 0.01},
		}
		results, err := RunCrashCells(cells, seed, workers, true)
		if err != nil {
			return err
		}
		snap.CrashOpsBaseline = results[0].Metric
		snap.CrashOpsDegraded = results[1].Metric
		snap.CrashAborted = results[1].FaultsAborted
		snap.CrashRedrives = results[1].FaultRedrives
		snap.CrashOwnLost = results[1].OwnershipLost
		snap.CrashPagesLost = results[1].PagesLost
		return nil
	}); err != nil {
		return nil, err
	}

	return snap, nil
}

// WriteFile writes the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
