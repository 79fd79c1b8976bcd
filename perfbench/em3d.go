package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/exp"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/workload"
)

// em3dCell is one Table 3 entry the sim-em3d workload runs.
type em3dCell struct {
	sys machine.System
	cfg workload.EM3DConfig
}

// em3dCells are the workload's two machines, run one after the other: ASVM
// at 1,024,000 cells on 32 nodes for 3 iterations, then XMM at 64,000
// cells on 16 nodes for 10, both with the paper's 16 MB nodes.
func em3dCells(seed uint64) []em3dCell {
	a := workload.DefaultEM3D(1_024_000, 32, 3)
	x := workload.DefaultEM3D(64_000, 16, 10)
	a.Seed, x.Seed = seed, seed
	return []em3dCell{{machine.SysASVM, a}, {machine.SysXMM, x}}
}

func runSimEM3D(o options) (*report, error) {
	cells := em3dCells(o.seed)
	for _, c := range cells {
		if exp.Table3Paper[c.sys][c.cfg.Cells][c.cfg.Nodes] == 0 {
			return nil, fmt.Errorf("no paper value for %v %d cells on %d nodes", c.sys, c.cfg.Cells, c.cfg.Nodes)
		}
	}
	return simLoop(o, func(tr *tracer) *simIter {
		it := &simIter{}
		var errPct float64
		for _, c := range cells {
			secs := em3dRun(it, c, tr)
			if it.err != nil {
				return it
			}
			// Table 3 reports 100 iterations; scale the shorter run up.
			secs *= 100 / float64(c.cfg.Iters)
			paper := exp.Table3Paper[c.sys][c.cfg.Cells][c.cfg.Nodes]
			errPct += math.Abs(secs-paper) / paper * 100
		}
		it.paperErr = errPct / float64(len(cells))
		return it
	}), nil
}

// em3dRun runs one EM3D machine into it and returns the virtual seconds of
// its computation loop (first start to last finish, initialisation
// excluded, as workload.RunEM3D measures it).
func em3dRun(it *simIter, cell em3dCell, tr *tracer) float64 {
	cfg := cell.cfg
	var plans []em3dPlan
	it.gen += tr.phase(spGen, func() { plans = planEM3D(cfg) })

	var c *machine.Cluster
	var w *simhost.World
	var bar, initBar int
	it.machineNew += tr.phase(spSetup, func() {
		mp := machine.DefaultParams(cfg.Nodes)
		mp.System = cell.sys
		mp.MemMB = cfg.MemMB
		mp.Seed = cfg.Seed
		c = machine.New(mp)
		pages := (cfg.DatasetBytes() + vm.PageSize - 1) / vm.PageSize
		w, it.err = simhost.NewWorld(c, []simhost.Spec{{Name: "em3d", Pages: pages}})
		if it.err == nil {
			bar = w.NewBarrier()
		}
	})
	if it.err != nil {
		return 0
	}

	starts := make([]sim.Time, cfg.Nodes)
	ends := make([]sim.Time, cfg.Nodes)
	it.prepare += tr.phase(spPrepare, func() {
		all := make([]int, cfg.Nodes)
		for i := range all {
			all[i] = i
		}
		if it.err = w.Prepare(all...); it.err != nil {
			return
		}
		initBar = w.NewBarrier()
		for n := range all {
			n, p := n, plans[n]
			it.ops += p.touches(cfg.Iters)
			w.GoOn(n, fmt.Sprintf("em3d%d", n), func(h app.Host) error {
				th := em3dThread{h: h, node: n, it: it, tr: tr}
				return th.run(cfg, p, bar, initBar, &starts[n], &ends[n])
			})
		}
	})
	if it.err != nil {
		return 0
	}

	if err := it.timedRun(tr, w.Run); err != nil {
		it.err = err
		return 0
	}
	var first, last sim.Time
	it.check += tr.phase(spCheck, func() {
		if n := c.Eng.Pending(); n != 0 {
			it.err = fmt.Errorf("sim-em3d %v: %d events pending after the run", cell.sys, n)
			return
		}
		for n := range ends {
			if ends[n] == 0 {
				it.err = fmt.Errorf("sim-em3d %v: node %d never finished", cell.sys, n)
				return
			}
			if n == 0 || starts[n] < first {
				first = starts[n]
			}
			if ends[n] > last {
				last = ends[n]
			}
		}
		it.err = c.CheckInvariants(w.Region(0))
	})
	it.addCluster(c)
	it.heapMB = maxf(it.heapMB, liveHeapMB())
	runtime.KeepAlive(w)
	return (last - first).Seconds()
}

// em3dThread is one node's SPMD thread: it issues every page touch of its
// plan in order, each when the previous one completed.
type em3dThread struct {
	h    app.Host
	node int
	it   *simIter
	tr   *tracer
}

func (t em3dThread) touch(pages []vm.PageIdx, write bool) error {
	for _, pg := range pages {
		off := int64(pg) * vm.PageSize
		kind := spRead
		t0 := t.h.Now()
		if write {
			kind = spWrite
			if err := t.h.Write(0, off, 0); err != nil {
				return err
			}
		} else if _, err := t.h.Read(0, off); err != nil {
			return err
		}
		t1 := t.h.Now()
		if t1 > t0 {
			t.it.lat = append(t.it.lat, t1-t0)
		}
		t.tr.op(kind, clkVirtual, t.node, t0, t1)
	}
	return nil
}

func (t em3dThread) run(cfg workload.EM3DConfig, p em3dPlan, bar, initBar int, start, end *sim.Time) error {
	h := t.h
	if err := t.touch(p.writeE, true); err != nil {
		return err
	}
	if err := t.touch(p.writeH, true); err != nil {
		return err
	}
	if err := h.Barrier(initBar); err != nil {
		return err
	}
	*start = h.Now()
	for iter := 0; iter < cfg.Iters; iter++ {
		if err := t.touch(p.readE, false); err != nil {
			return err
		}
		if err := t.touch(p.writeE, true); err != nil {
			return err
		}
		h.Sleep(time.Duration(p.updatesE) * cfg.PerCellCompute)
		if err := h.Barrier(bar); err != nil {
			return err
		}
		if err := t.touch(p.readH, false); err != nil {
			return err
		}
		if err := t.touch(p.writeH, true); err != nil {
			return err
		}
		h.Sleep(time.Duration(p.updatesH) * cfg.PerCellCompute)
		if err := h.Barrier(bar); err != nil {
			return err
		}
	}
	*end = h.Now()
	return nil
}

// em3dPlan is one node's per-phase page working set.
type em3dPlan struct {
	readE, writeE []vm.PageIdx // E phase: read H sources, write own E cells
	readH, writeH []vm.PageIdx // H phase: read E sources, write own H cells
	updatesE      int
	updatesH      int
}

// touches counts the page touches the plan issues over iters iterations.
func (p em3dPlan) touches(iters int) int64 {
	per := len(p.readE) + len(p.writeE) + len(p.readH) + len(p.writeH)
	return int64(len(p.writeE) + len(p.writeH) + iters*per)
}

// planEM3D derives each node's page sets from the graph, drawing from the
// seeded generator in the order the workload package does, so that the
// machine runs the very schedule workload.RunEM3D runs (a test checks the
// two makespans are equal). Node n owns cells [n*cpn, (n+1)*cpn): the
// first half E cells, the second half H cells; remote edges pick sources
// from the neighbouring nodes' boundary windows.
func planEM3D(cfg workload.EM3DConfig) []em3dPlan {
	rng := sim.NewRNG(cfg.Seed)
	cpn := cfg.Cells / cfg.Nodes
	cellPage := func(cell int) vm.PageIdx {
		return vm.PageIdx(int64(cell) * int64(cfg.CellBytes) / vm.PageSize)
	}
	pagesOf := func(firstCell, nCells int) []vm.PageIdx {
		if nCells <= 0 {
			return nil
		}
		var out []vm.PageIdx
		for pg := cellPage(firstCell); pg <= cellPage(firstCell+nCells-1); pg++ {
			out = append(out, pg)
		}
		return out
	}
	plans := make([]em3dPlan, cfg.Nodes)
	for n := range plans {
		half := cpn / 2
		p := em3dPlan{updatesE: half, updatesH: cpn - half}
		p.writeE = pagesOf(n*cpn, half)
		p.writeH = pagesOf(n*cpn+half, cpn-half)
		ghost := cfg.GhostCells
		if ghost > half {
			ghost = half
		}
		sample := func(count int, hHalf bool) []vm.PageIdx {
			set := make(map[vm.PageIdx]bool)
			if cfg.Nodes == 1 || ghost == 0 {
				return nil
			}
			for k := 0; k < count; k++ {
				nb := (n + 1) % cfg.Nodes
				if rng.Intn(2) != 0 {
					nb = (n - 1 + cfg.Nodes) % cfg.Nodes
				}
				cell := nb * cpn
				if hHalf {
					cell += half
				}
				set[cellPage(cell+rng.Intn(ghost))] = true
			}
			return sortedPages(set)
		}
		remE := sample(p.updatesE*cfg.EdgesPerCell*cfg.RemotePct/100, true)
		p.readE = append(append([]vm.PageIdx(nil), p.writeH...), remE...)
		remH := sample(p.updatesH*cfg.EdgesPerCell*cfg.RemotePct/100, false)
		p.readH = append(append([]vm.PageIdx(nil), p.writeE...), remH...)
		plans[n] = p
	}
	return plans
}

func sortedPages(set map[vm.PageIdx]bool) []vm.PageIdx {
	out := make([]vm.PageIdx, 0, len(set))
	for pg := range set {
		out = append(out, pg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
