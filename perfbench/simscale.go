package main

import (
	"fmt"
	"runtime"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/asvm"
	"asvm/internal/exp"
	"asvm/internal/machine"
	"asvm/internal/vm"
)

// scaleCell is the sim-scale workload's machine: the 1024-node zipf churn
// cell of the scale sweep at 24 touches per node, each node one closed-loop
// thread.
func scaleCell(seed uint64) exp.ScaleCell {
	return exp.ScaleCell{
		Nodes:          1024,
		Objects:        16,
		PagesPerObject: 8,
		OpsPerNode:     24,
		ZipfSkew:       1.0,
		ChurnEvery:     12,
		OpenObjects:    4,
		SamplePages:    4,
		Seed:           seed,
	}
}

func runSimScale(o options) (*report, error) {
	cell := scaleCell(o.seed)
	return simLoop(o, func(tr *tracer) *simIter { return scaleIter(cell, tr) }), nil
}

// scaleIter runs one cell the way exp.RunScaleCell does — same machine,
// same object layout, same op streams, same checks — but through the
// machine and simhost entry points, so that each phase can be timed and
// the cluster's counters read afterwards.
func scaleIter(cell exp.ScaleCell, tr *tracer) *simIter {
	it := &simIter{}
	streams := make([][]exp.ScaleOp, cell.Nodes)
	it.gen = tr.phase(spGen, func() {
		for n := range streams {
			streams[n] = exp.GenScaleOps(cell, n)
		}
	})

	var c *machine.Cluster
	var w *simhost.World
	it.machineNew = tr.phase(spSetup, func() {
		p := machine.DefaultParams(cell.Nodes)
		p.Seed = cell.Seed
		c = machine.New(p)
		specs := make([]simhost.Spec, cell.Objects)
		for o := range specs {
			idxs := make([]int, cell.Nodes)
			for i := range idxs {
				idxs[i] = (o + i) % cell.Nodes
			}
			specs[o] = simhost.Spec{Name: fmt.Sprintf("s%d", o), Pages: int64(cell.PagesPerObject), Nodes: idxs}
		}
		w, it.err = simhost.NewWorld(c, specs)
	})
	if it.err != nil {
		return it
	}

	it.prepare = tr.phase(spPrepare, func() {
		for n := 0; n < cell.Nodes && it.err == nil; n++ {
			if it.err = w.Prepare(n); it.err != nil {
				break
			}
			n, ops := n, streams[n]
			for _, op := range ops {
				if op.Kind == exp.OpTouch {
					it.ops++
				}
			}
			w.GoOn(n, "scale", func(h app.Host) error {
				return scaleThread(h, n, ops, it, tr)
			})
		}
	})
	if it.err != nil {
		return it
	}

	if err := it.timedRun(tr, w.Run); err != nil {
		it.err = err
		return it
	}
	it.check = tr.phase(spCheck, func() {
		if n := c.Eng.Pending(); n != 0 {
			it.err = fmt.Errorf("sim-scale: %d events pending after the run", n)
			return
		}
		for o := 0; o < cell.Objects && it.err == nil; o++ {
			if err := asvm.CheckInvariantsSampled(c.ASVMCluster(), w.Region(o).ASVMInfo(),
				cell.SamplePages, cell.Seed); err != nil {
				it.err = fmt.Errorf("sim-scale object %d: %w", o, err)
			}
		}
	})
	it.addCluster(c)
	it.heapMB = liveHeapMB()
	runtime.KeepAlive(w)
	return it
}

// scaleThread is one node's closed loop over its generated stream: each
// touch is issued when the previous one completed. A touch whose virtual
// latency is nonzero faulted; it joins the latency sample.
func scaleThread(h app.Host, node int, ops []exp.ScaleOp, it *simIter, tr *tracer) error {
	for _, op := range ops {
		switch op.Kind {
		case exp.OpOpen:
			if err := h.Open(op.Obj); err != nil {
				return err
			}
		case exp.OpClose:
			if err := h.Close(op.Obj); err != nil {
				return err
			}
		case exp.OpTouch:
			off := int64(op.Page * vm.PageSize)
			kind := spRead
			t0 := h.Now()
			if op.Write {
				kind = spWrite
				if err := h.Write(op.Obj, off, 0); err != nil {
					return err
				}
			} else if _, err := h.Read(op.Obj, off); err != nil {
				return err
			}
			t1 := h.Now()
			if t1 > t0 {
				it.lat = append(it.lat, t1-t0)
			}
			tr.op(kind, clkVirtual, node, t0, t1)
		}
	}
	return nil
}
