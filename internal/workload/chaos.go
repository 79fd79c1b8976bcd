package workload

import (
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/xport"
)

// This file runs the measurement workloads under deterministic chaos: the
// transport drops/duplicates/delays messages per a FaultPlan while the
// reliability layer (sequence numbers, acks, retransmission) restores
// exactly-once delivery. Every run drains the simulation and checks the
// ASVM global invariants — degraded performance is acceptable, corrupted
// protocol state is not.

// ChaosResult is one chaos cell: the workload's own metric plus the fault
// and recovery counters that explain the degradation.
type ChaosResult struct {
	// Metric is the workload's figure of merit (seconds for fault latency
	// and EM3D, MB/s for the file benchmarks).
	Metric float64

	// Msgs is total transport traffic (both wire protocols).
	Msgs uint64
	// Injected faults.
	Dropped, Duplicated, Delayed uint64
	// Recovery work done by the reliability layer.
	Retransmits, DupsSuppressed, AcksSent, Nacks uint64

	// RingScanHops counts global ring-scan forwarding hops — the O(n)
	// fallback the hint caches exist to avoid. A healthy run keeps it near
	// zero; faults and crashes push requests onto the ring.
	RingScanHops int64

	// Crash-stop degradation (crash-sweep cells; all zero on crash-free
	// runs). Crashes/Restarts are executed plan fates; the rest aggregate
	// the protocol counters across nodes: faults aborted with typed
	// errors, faults re-driven past a dead peer, ownership and dirty
	// contents that died with a node, surviving read copies dropped, and
	// forwarding hints evicted.
	Crashes, Restarts int
	FaultsAborted     int64
	FaultRedrives     int64
	OwnershipLost     int64
	PagesLost         int64
	CopiesDropped     int64
	HintEvictions     int64
	PeersDowned       uint64
}

// ReliableCfg tunes the reliability layer (initial RTO, backoff cap,
// retry budget) for every chaos and crash cell this package builds. The
// zero value means the calibrated defaults (4ms initial RTO, 64ms cap,
// 30 retries) — existing sweep output is bit-identical unless a run sets
// it, e.g. via asvmbench -rto/-rtomax/-retries. Set once at startup,
// before any cells run.
var ReliableCfg xport.ReliableConfig

// chaosParams builds cluster parameters with the chaos stack enabled:
// fault injection below, the reliability layer above.
func chaosParams(nodes int, seed uint64, plan xport.FaultPlan) machine.Params {
	p := machine.DefaultParams(nodes)
	p.Seed = seed
	p.Fault = plan
	p.Reliable = true
	p.ReliableCfg = ReliableCfg
	return p
}

// collectChaos validates the drained cluster and gathers the counters.
func collectChaos(c *machine.Cluster, r *machine.Region, metric float64) (ChaosResult, error) {
	if err := c.CheckInvariants(r); err != nil {
		return ChaosResult{}, err
	}
	res := ChaosResult{Metric: metric}
	if c.STSTR != nil {
		res.Msgs += c.STSTR.Msgs
	}
	if c.NormaTR != nil {
		res.Msgs += c.NormaTR.Msgs
	}
	if f := c.FaultTR; f != nil {
		res.Dropped, res.Duplicated, res.Delayed = f.Dropped, f.Duplicated, f.Delayed
	}
	if rel := c.RelTR; rel != nil {
		res.Retransmits, res.DupsSuppressed = rel.Retransmits, rel.DupsSuppressed
		res.AcksSent, res.Nacks = rel.AcksSent, rel.Nacks
		res.PeersDowned = rel.PeersDowned
	}
	res.Crashes, res.Restarts = c.CrashStats.Crashes, c.CrashStats.Restarts
	// The dying nodes' own in-flight faults, failed by the kernel at the
	// crash instant, count as aborted alongside the survivors' typed
	// failures below.
	res.FaultsAborted += int64(c.CrashStats.FaultsAborted)
	for _, nd := range c.ASVMs {
		res.FaultsAborted += nd.Ctr.V[sim.CtrFaultsAborted]
		res.FaultRedrives += nd.Ctr.V[sim.CtrFaultRedrives]
		res.OwnershipLost += nd.Ctr.V[sim.CtrOwnershipLost]
		res.PagesLost += nd.Ctr.V[sim.CtrPagesLost]
		res.CopiesDropped += nd.Ctr.V[sim.CtrCopiesDropped]
		res.HintEvictions += nd.Ctr.V[sim.CtrHintEvictions]
		res.RingScanHops += nd.Ctr.V[sim.CtrRingScanHops]
	}
	return res, nil
}

// ChaosFault runs one Table 1 fault scenario under the plan; Metric is the
// measured fault latency in seconds.
func ChaosFault(sc FaultScenario, seed uint64, plan xport.FaultPlan) (ChaosResult, error) {
	p := chaosParams(FaultClusterSize(sc), seed, plan)
	p.TrackData = true
	c := machine.New(p)
	lat, r, err := measureFaultOn(c, sc)
	if err != nil {
		return ChaosResult{}, err
	}
	return collectChaos(c, r, lat.Seconds())
}

// ChaosFileWrite runs the parallel file-write benchmark under the plan;
// Metric is the mean per-node rate in MB/s.
func ChaosFileWrite(nNodes int, seed uint64, plan xport.FaultPlan) (ChaosResult, error) {
	c := machine.New(chaosParams(FileClusterSize(nNodes), seed, plan))
	rate, r, err := fileWriteOn(c, nNodes)
	if err != nil {
		return ChaosResult{}, err
	}
	return collectChaos(c, r, rate)
}

// ChaosFileRead runs the parallel file-read benchmark under the plan;
// Metric is the mean per-node rate in MB/s.
func ChaosFileRead(nNodes int, seed uint64, plan xport.FaultPlan) (ChaosResult, error) {
	c := machine.New(chaosParams(FileClusterSize(nNodes), seed, plan))
	rate, r, err := fileReadOn(c, nNodes)
	if err != nil {
		return ChaosResult{}, err
	}
	return collectChaos(c, r, rate)
}

// ChaosEM3D runs EM3D under the plan; Metric is the computation time in
// seconds.
func ChaosEM3D(cfg EM3DConfig, plan xport.FaultPlan) (ChaosResult, error) {
	p := chaosParams(cfg.Nodes, cfg.Seed, plan)
	p.MemMB = cfg.MemMB
	c := machine.New(p)
	d, r, err := runEM3DRegion(c, cfg)
	if err != nil {
		return ChaosResult{}, err
	}
	return collectChaos(c, r, d.Seconds())
}
