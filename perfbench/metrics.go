package main

// metricSpec names one reported metric and its unit. The two tables below
// are the benchmark's contract: BENCHMARK.json lists exactly these names
// and units (a test keeps the two in step), every workload reports every
// end-to-end metric on a plain run and every per-layer metric on a traced
// run. A per-layer metric that does not apply to a workload reads 0 — the
// layer did no such work there (sim-scale has no XMM manager, the sim
// workloads open no sockets).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees on every workload: how long
// the system takes to set up, how much work it completes per host second,
// and the memory it holds. Workload-specific results (virtual fault
// latency, paper error, real-mesh op latency) are in perLayer's first
// group: the end-to-end set must be measured, and nonzero, on every
// workload, and the simulated results of sim-em3d do not vary with the seed.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"live_heap_mb", "MB", "lower"},
}

// workloadResults lead the per-layer set and are printed on untraced runs
// too: the virtual latency of touches that faulted and the virtual
// completion time (sim workloads), the paper error (sim-em3d), the
// client-observed wall latency of an op (mesh-kv).
var workloadResults = []metricSpec{
	{"fail_frac", "ratio", "lower"},
	{"sim_fault_p50_ms", "ms", "lower"},
	{"sim_fault_p99_ms", "ms", "lower"},
	{"sim_fault_samples", "count", "lower"},
	{"sim_makespan_s", "s", "lower"},
	{"paper_err_pct", "%", "lower"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"op_samples", "count", "higher"},
}

// perLayer is the workload results and then one entry per layer metric,
// grouped by the repository module it measures. README.md maps each group
// to the end-to-end metric it should move.
var perLayer = append(append([]metricSpec(nil), workloadResults...), []metricSpec{
	// sim: the event engine.
	{"sim.events", "count", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.run_s", "s", "lower"},
	{"sim.schedule_run_ns", "ns", "lower"},

	// mesh: the XY interconnect model.
	{"mesh.nic_busy_s", "s", "lower"},
	{"mesh.nic_util_max", "ratio", "lower"},
	{"mesh.nic_backlog_max_ms", "ms", "lower"},
	{"mesh.sendrun_ns", "ns", "lower"},

	// node: message processors.
	{"node.msgproc_busy_s", "s", "lower"},
	{"node.msgproc_util_max", "ratio", "lower"},
	{"node.msgproc_backlog_max_ms", "ms", "lower"},

	// sts / norma / xport: the transports.
	{"xport.msgs", "count", "lower"},
	{"xport.msgs_per_fault", "count", "lower"},
	{"sts.send_rtt_ns", "ns", "lower"},
	{"norma.send_rtt_ns", "ns", "lower"},

	// asvm: ownership and forwarding protocol.
	{"asvm.data_requests", "count", "lower"},
	{"asvm.fwd_dynamic", "count", "lower"},
	{"asvm.fwd_static", "count", "lower"},
	{"asvm.fwd_global", "count", "lower"},
	{"asvm.fallback_rate", "ratio", "lower"},
	{"asvm.ring_scan_hops", "count", "lower"},
	{"asvm.hop_escalations", "count", "lower"},
	{"asvm.hint_evictions", "count", "lower"},
	{"asvm.static_misses", "count", "lower"},
	{"asvm.invalidations", "count", "lower"},
	{"asvm.nacks", "count", "lower"},

	// xmm: the baseline central manager.
	{"xmm.mgr_requests", "count", "lower"},
	{"xmm.mgr_dirty_to_pager", "count", "lower"},
	{"xmm.mgr_flushes", "count", "lower"},

	// vm / pager: kernel fault path, eviction, paging space and disks.
	{"vm.faults", "count", "lower"},
	{"vm.zero_fills", "count", "lower"},
	{"vm.evictions", "count", "lower"},
	{"pager.disk_reads", "count", "lower"},
	{"pager.disk_writes", "count", "lower"},
	{"pager.disk_busy_s", "s", "lower"},

	// machine / app/simhost: assembly and the workload host.
	{"setup.machine_new_s", "s", "lower"},
	{"setup.prepare_s", "s", "lower"},
	{"setup.gen_s", "s", "lower"},
	{"check.invariants_s", "s", "lower"},

	// dsm / rt / xport/netx: the real mesh.
	{"netx.frames_per_op", "count", "lower"},
	{"netx.bytes_per_op", "B", "lower"},
	{"netx.bounces", "count", "lower"},
	{"netx.local_nacks", "count", "lower"},
	{"netx.dials", "count", "lower"},
	{"netx.decode_errors", "count", "lower"},
	{"mesh_kv.msgs_per_op", "count", "lower"},
	{"mesh_kv.faults_per_op", "count", "lower"},
	{"mesh_kv.invalidations_per_op", "count", "lower"},
	{"netx.frame_rtt_us", "us", "lower"},
	{"rt.call_us", "us", "lower"},

	// Host process.
	{"proc.cpu_user_s_per_kop", "s", "lower"},
	{"proc.cpu_sys_s_per_kop", "s", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.mallocs_per_op", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},

	// The traced pass itself.
	{"trace.read_p50", "ms", "lower"},
	{"trace.write_p50", "ms", "lower"},
	{"trace.lock_p50", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}...)
