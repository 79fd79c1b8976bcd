package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"asvm/internal/machine"
	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// simIter is one iteration of a simulated workload: every machine it
// needs assembled, driven to completion, drained and checked. Host times
// come from the benchmark's own clock around the public calls; everything
// else is simulated and must repeat bit for bit at one seed.
type simIter struct {
	machineNew, gen, prepare time.Duration // set-up phases
	run                      time.Duration // the timed phase: Engine runs
	check                    time.Duration // drain + invariant checks

	ops      int64           // page touches issued
	lat      []time.Duration // virtual latency of every touch that faulted
	makespan time.Duration   // virtual completion time, summed over machines
	paperErr float64         // mean |sim - paper| / paper in %, sim-em3d only
	counts   map[string]float64
	heapMB   float64 // live heap after a run, its machine still reachable (max over machines)
	cost     hostCost
	err      error // a failed drain or invariant check
}

func (it *simIter) setup() time.Duration { return it.machineNew + it.gen + it.prepare }

// fingerprint renders every simulated result of the iteration; two
// iterations at one seed must produce the same string.
func (it *simIter) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d faults=%d makespan=%d err=%.9g", it.ops, len(it.lat), it.makespan, it.paperErr)
	var sum time.Duration
	for _, d := range it.lat {
		sum += d
	}
	fmt.Fprintf(&b, " latsum=%d", sum)
	keys := make([]string, 0, len(it.counts))
	for k := range it.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.9g", k, it.counts[k])
	}
	return b.String()
}

// timedRun drives one machine's engine to completion as the timed phase,
// charging the process resources it used to the iteration.
func (it *simIter) timedRun(tr *tracer, run func() error) error {
	var err error
	a := takeSnap()
	it.run += tr.phase(spRun, func() { err = run() })
	it.cost.add(a, takeSnap())
	return err
}

// addCluster adds one drained machine's layer counters and server
// accounting to the iteration's totals.
func (it *simIter) addCluster(c *machine.Cluster) {
	if it.counts == nil {
		it.counts = make(map[string]float64)
	}
	m := it.counts
	now := c.Eng.Now()
	it.makespan += now
	m["sim.events"] += float64(c.Eng.Executed)

	servers := func(prefix string, srvs []*sim.Server) {
		for _, s := range srvs {
			m[prefix+"_busy_s"] += s.BusyTime.Seconds()
			if now > 0 {
				m[prefix+"_util_max"] = maxf(m[prefix+"_util_max"], s.BusyTime.Seconds()/now.Seconds())
			}
			m[prefix+"_backlog_max_ms"] = maxf(m[prefix+"_backlog_max_ms"], ms(s.MaxBacklog()))
		}
	}
	nics := make([]*sim.Server, c.Net.Size())
	for i := range nics {
		nics[i] = c.Net.NIC(mesh.NodeID(i))
	}
	servers("mesh.nic", nics)
	procs := make([]*sim.Server, len(c.HW))
	for i, hw := range c.HW {
		procs[i] = hw.MsgProc
		if hw.Disk != nil {
			m["pager.disk_reads"] += float64(hw.Disk.Reads)
			m["pager.disk_writes"] += float64(hw.Disk.Writes)
			m["pager.disk_busy_s"] += hw.Disk.Server().BusyTime.Seconds()
		}
	}
	servers("node.msgproc", procs)

	m["xport.msgs"] += float64(c.STSTR.Msgs + c.NormaTR.Msgs)
	for _, k := range c.Kerns {
		m["vm.faults"] += float64(k.Ctr.V[sim.CtrFaults])
		m["vm.zero_fills"] += float64(k.Ctr.V[sim.CtrZeroFills])
		m["vm.evictions"] += float64(k.Ctr.V[sim.CtrEvictions])
	}
	asvmCtrs := []struct {
		name string
		ctr  sim.Ctr
	}{
		{"asvm.data_requests", sim.CtrDataRequests},
		{"asvm.fwd_dynamic", sim.CtrFwdDynamic},
		{"asvm.fwd_static", sim.CtrFwdStatic},
		{"asvm.fwd_global", sim.CtrFwdGlobal},
		{"asvm.ring_scan_hops", sim.CtrRingScanHops},
		{"asvm.hop_escalations", sim.CtrHopEscalations},
		{"asvm.hint_evictions", sim.CtrHintEvictions},
		{"asvm.static_misses", sim.CtrStaticMisses},
		{"asvm.invalidations", sim.CtrInvalidations},
		{"asvm.nacks", sim.CtrNacks},
	}
	for _, nd := range c.ASVMs {
		for _, a := range asvmCtrs {
			m[a.name] += float64(nd.Ctr.V[a.ctr])
		}
	}
	for _, nd := range c.XMMs {
		m["xmm.mgr_requests"] += float64(nd.Ctr.V[sim.CtrMgrRequests])
		m["xmm.mgr_dirty_to_pager"] += float64(nd.Ctr.V[sim.CtrMgrDirtyToPager])
		m["xmm.mgr_flushes"] += float64(nd.Ctr.V[sim.CtrMgrFlushes])
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// simLoop repeats iterate until the timed phases add up to o.seconds (at
// least twice, so the repeat check always runs) and folds the iterations
// into one report. On a traced run every other iteration is traced: the
// untraced ones give the host-time figures and the baseline for
// trace.overhead_pct.
func simLoop(o options, iterate func(tr *tracer) *simIter) *report {
	var iters []*simIter
	var traced []bool
	var runTotal time.Duration
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	for i := 0; len(iters) < 2 || runTotal < o.seconds; i++ {
		on := o.trace && i%2 == 1
		var t *tracer
		if on {
			t = tr
			if i > 1 {
				t.replay()
			}
		}
		runtime.GC() // the previous iteration's machines are garbage now
		it := iterate(t)
		iters = append(iters, it)
		traced = append(traced, on)
		runTotal += it.run
		if it.err != nil {
			break // the run is already incorrect; its budget may never fill
		}
	}

	r := newReport()
	first := iters[0]
	want := first.fingerprint()
	var setups, heaps, machineNew, gen, prepare, check, runs, rates []float64
	var cost hostCost
	var plainOps, tracedOps int64
	var plainRun, tracedRun time.Duration
	for i, it := range iters {
		r.attempted += it.ops
		switch {
		case it.err != nil:
			r.failed += it.ops
			r.notef("iteration %d failed its checks: %v", i, it.err)
		case it.fingerprint() != want:
			r.failed += it.ops
			r.notef("iteration %d is not a bit-identical repeat of iteration 0:\n  got  %s\n  want %s",
				i, it.fingerprint(), want)
		}
		setups = append(setups, it.setup().Seconds())
		machineNew = append(machineNew, it.machineNew.Seconds())
		gen = append(gen, it.gen.Seconds())
		prepare = append(prepare, it.prepare.Seconds())
		check = append(check, it.check.Seconds())
		if traced[i] {
			tracedOps += it.ops
			tracedRun += it.run
			continue
		}
		heaps = append(heaps, it.heapMB)
		runs = append(runs, it.run.Seconds())
		if it.run > 0 {
			rates = append(rates, float64(it.ops)/it.run.Seconds())
		}
		plainOps += it.ops
		plainRun += it.run
		cost.merge(it.cost)
	}
	r.notef("%d iterations (%d traced), %d ops each", len(iters), len(iters)-len(runs), first.ops)

	r.e2e["setup_s"] = median(setups)
	r.e2e["ops_per_s"] = median(rates)
	r.e2e["live_heap_mb"] = maxOf(heaps)

	for k, v := range first.counts {
		r.layer[k] = v
	}
	l := r.layer
	lat := append([]time.Duration(nil), first.lat...)
	l["sim_fault_p50_ms"] = ms(percentile(lat, 50))
	l["sim_fault_p99_ms"] = ms(percentile(lat, 99))
	l["sim_fault_samples"] = float64(len(lat))
	l["sim_makespan_s"] = first.makespan.Seconds()
	l["paper_err_pct"] = first.paperErr
	l["sim.run_s"] = median(runs)
	l["sim.events_per_op"] = l["sim.events"] / float64(first.ops)
	l["sim.events_per_s"] = l["sim.events"] / l["sim.run_s"]
	if l["vm.faults"] > 0 {
		l["xport.msgs_per_fault"] = l["xport.msgs"] / l["vm.faults"]
	}
	if l["asvm.data_requests"] > 0 {
		l["asvm.fallback_rate"] = l["asvm.fwd_global"] / l["asvm.data_requests"]
	}
	l["setup.machine_new_s"] = median(machineNew)
	l["setup.gen_s"] = median(gen)
	l["setup.prepare_s"] = median(prepare)
	l["check.invariants_s"] = median(check)
	cost.layer(l, plainOps)

	r.notef("sim faults: %d samples, %d beyond p99", len(lat), beyondP99(len(lat)))
	if tr != nil {
		untraced := float64(plainOps) / plainRun.Seconds()
		withTrace := float64(tracedOps) / tracedRun.Seconds()
		l["trace.overhead_pct"] = (untraced/withTrace - 1) * 100
		r.tr = tr
	}
	return r
}
