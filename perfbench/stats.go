package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, sorting them in place; zero when there are none.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p/100*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(samples) {
		rank = len(samples) - 1
	}
	return samples[rank]
}

// beyondP99 is how many samples rank strictly above the nearest-rank p99:
// the guide's rule is that a reported percentile needs at least ten.
func beyondP99(n int) int {
	return n - int(math.Ceil(0.99*float64(n)))
}

// median of a non-empty slice (sorted in place); zero when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// maxOf is the largest of xs; zero when empty.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hostSnap is the process's resource use at one instant: CPU time from
// getrusage and allocation totals from the Go runtime.
type hostSnap struct {
	user, sys   time.Duration
	totalAlloc  uint64
	mallocs     uint64
	numGC       uint32
	heapInUseMB float64
}

func takeSnap() hostSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostSnap{
		user:        time.Duration(ru.Utime.Nano()),
		sys:         time.Duration(ru.Stime.Nano()),
		totalAlloc:  m.TotalAlloc,
		mallocs:     m.Mallocs,
		numGC:       m.NumGC,
		heapInUseMB: float64(m.HeapAlloc) / (1 << 20),
	}
}

// liveHeapMB forces a collection and returns the heap still in use: what
// the workload's live structures cost once garbage is gone.
func liveHeapMB() float64 {
	runtime.GC()
	return takeSnap().heapInUseMB
}

// hostCost accumulates the process resources spent inside timed phases.
type hostCost struct {
	user, sys  time.Duration
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
}

// add charges the interval between two snapshots.
func (h *hostCost) add(a, b hostSnap) {
	h.user += b.user - a.user
	h.sys += b.sys - a.sys
	h.allocBytes += b.totalAlloc - a.totalAlloc
	h.mallocs += b.mallocs - a.mallocs
	h.gcs += b.numGC - a.numGC
}

// merge adds another accumulation.
func (h *hostCost) merge(o hostCost) {
	h.user += o.user
	h.sys += o.sys
	h.allocBytes += o.allocBytes
	h.mallocs += o.mallocs
	h.gcs += o.gcs
}

// layer writes the host-process per-layer metrics for ops completed ops.
func (h hostCost) layer(out map[string]float64, ops int64) {
	if ops <= 0 {
		return
	}
	kops := float64(ops) / 1000
	out["proc.cpu_user_s_per_kop"] = h.user.Seconds() / kops
	out["proc.cpu_sys_s_per_kop"] = h.sys.Seconds() / kops
	out["go.alloc_mb"] = float64(h.allocBytes) / (1 << 20)
	out["go.mallocs_per_op"] = float64(h.mallocs) / float64(ops)
	out["go.gc_cycles"] = float64(h.gcs)
}
