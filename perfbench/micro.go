package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/norma"
	"asvm/internal/rt"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/xport"
	"asvm/internal/xport/netx"
)

// The layer microbenchmarks time one public entry point each, in host
// time, on a traced run. Each repeats its loop microReps times and reports
// the median repetition, so one descheduled repetition does not move it.
const microReps = 5

// microbench runs every layer microbenchmark into out.
func microbench(out map[string]float64) error {
	out["sim.schedule_run_ns"] = medianRep(func() float64 { return scheduleRunNS(1 << 20) })
	out["mesh.sendrun_ns"] = medianRep(func() float64 { return meshSendRunNS(1024, 1<<18) })
	out["sts.send_rtt_ns"] = medianRep(func() float64 {
		return transportRTTNS(1024, 1<<16, func(e *sim.Engine, nw *mesh.Network, hw []*node.Node) xport.Transport {
			return sts.New(e, nw, hw, sts.DefaultCosts())
		})
	})
	out["norma.send_rtt_ns"] = medianRep(func() float64 {
		return transportRTTNS(16, 1<<16, func(e *sim.Engine, nw *mesh.Network, hw []*node.Node) xport.Transport {
			return norma.New(e, nw, hw, norma.DefaultCosts())
		})
	})
	rtt, err := netxFrameRTT(2000)
	if err != nil {
		return err
	}
	out["netx.frame_rtt_us"] = float64(rtt) / float64(time.Microsecond)
	out["rt.call_us"] = float64(rtCall(20000)) / float64(time.Microsecond)
	return nil
}

func medianRep(f func() float64) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// scheduleRunNS is the engine's schedule + dispatch cost per event, with
// the queue kept up to 1024 deep and jittered delays, as the sim
// package's BenchmarkScheduleRun measures it.
func scheduleRunNS(events int) float64 {
	e := sim.NewEngine()
	fn := func() {}
	start := time.Now()
	for i := 0; i < events; i++ {
		e.Schedule(time.Duration(i%64)*time.Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run()
		}
	}
	e.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(e.Executed)
}

type nopRun struct{ n *int }

func (r nopRun) Run() { *r.n++ }

// meshSendRunNS is the host cost of one interconnect send and delivery
// between seeded random node pairs of an n-node mesh.
func meshSendRunNS(n, sends int) float64 {
	e := sim.NewEngine()
	nw := mesh.New(e, n, mesh.DefaultConfig(n))
	rng := sim.NewRNG(1)
	delivered := 0
	r := nopRun{&delivered}
	start := time.Now()
	for i := 0; i < sends; i++ {
		nw.SendRun(mesh.NodeID(rng.Intn(n)), mesh.NodeID(rng.Intn(n)), 64, r)
		if e.Pending() >= 1024 {
			e.Run()
		}
	}
	e.Run()
	d := time.Since(start)
	if delivered != sends {
		panic(fmt.Sprintf("mesh: %d of %d sends delivered", delivered, sends))
	}
	return float64(d.Nanoseconds()) / float64(sends)
}

var rttProto = xport.RegisterProto("perfbench.rtt")

// transportRTTNS is the host cost of one request/reply round trip through
// a simulated transport — sender message processor, mesh, receiver
// message processor and handler, then a page-bearing reply — between
// seeded random node pairs of an n-node machine.
func transportRTTNS(n, trips int, build func(*sim.Engine, *mesh.Network, []*node.Node) xport.Transport) float64 {
	e := sim.NewEngine()
	nw := mesh.New(e, n, mesh.DefaultConfig(n))
	hw := make([]*node.Node, n)
	for i := range hw {
		hw[i] = node.New(e, mesh.NodeID(i))
	}
	tr := build(e, nw, hw)
	done := 0
	for i := 0; i < n; i++ {
		self := mesh.NodeID(i)
		tr.Register(self, rttProto, func(src mesh.NodeID, m interface{}) {
			if m.(bool) { // a request: answer with a page
				tr.Send(self, src, rttProto, sts.PageBytes, false)
				return
			}
			done++
		})
	}
	rng := sim.NewRNG(2)
	start := time.Now()
	for i := 0; i < trips; i++ {
		src := mesh.NodeID(rng.Intn(n))
		dst := mesh.NodeID((int(src) + 1 + rng.Intn(n-1)) % n)
		tr.Send(src, dst, rttProto, 0, true)
		e.Run()
	}
	d := time.Since(start)
	if done != trips {
		panic(fmt.Sprintf("%s: %d of %d round trips completed", tr.Name(), done, trips))
	}
	return float64(d.Nanoseconds()) / float64(trips)
}

// pingCodec carries the netx microbenchmark's 8-byte sequence numbers.
type pingCodec struct{}

func (pingCodec) AppendMsg(dst []byte, m interface{}) ([]byte, error) {
	v, ok := m.(uint64)
	if !ok {
		return dst, fmt.Errorf("ping codec: cannot encode %T", m)
	}
	return binary.LittleEndian.AppendUint64(dst, v), nil
}

func (pingCodec) DecodeMsg(b []byte) (interface{}, error) {
	if len(b) != 8 {
		return nil, fmt.Errorf("ping codec: %d-byte message", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

const pingProtoName = "perfbench.ping"

var pingProto = xport.RegisterProto(pingProtoName)

func init() { xport.RegisterWireCodec(pingProtoName, pingCodec{}) }

// netxFrameRTT is the median wall round trip of one small frame between
// two netx transports over loopback TCP, each on its own rt.Loop: encode,
// socket write, read, decode, injection, handler, and back.
func netxFrameRTT(trips int) (time.Duration, error) {
	addrs := make([]string, 2)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return 0, err
		}
		addrs[i] = a
	}
	pong := make(chan uint64, 1)
	var trs [2]*netx.Transport
	for i := range trs {
		self, peer := mesh.NodeID(i), mesh.NodeID(1-i)
		loop := rt.NewLoop(sim.NewEngine())
		loop.Start(context.Background())
		defer loop.Stop()
		t := netx.New(loop, netx.Config{Self: self, Peers: map[mesh.NodeID]string{peer: addrs[1-i]}, Listen: addrs[i]})
		if err := t.Start(); err != nil {
			return 0, fmt.Errorf("netx %d: %w", i, err)
		}
		defer t.Close()
		trs[i] = t
	}
	trs[1].Register(1, pingProto, func(src mesh.NodeID, m interface{}) {
		trs[1].Send(1, src, pingProto, 8, m)
	})
	trs[0].Register(0, pingProto, func(src mesh.NodeID, m interface{}) { pong <- m.(uint64) })

	// The first trips dial the connections; they are not timed.
	const warm = 50
	rtts := make([]time.Duration, 0, trips)
	for i := 0; i < warm+trips; i++ {
		start := time.Now()
		trs[0].Send(0, 1, pingProto, 8, uint64(i))
		select {
		case got := <-pong:
			if got != uint64(i) {
				return 0, fmt.Errorf("netx ping %d answered with %d", i, got)
			}
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("netx ping %d: no answer within 5s", i)
		}
		if i >= warm {
			rtts = append(rtts, time.Since(start))
		}
	}
	return percentile(rtts, 50), nil
}

// rtCall is the median wall latency of rt.Loop.Call: inject a closure,
// wake the loop goroutine, run it there, and hand control back.
func rtCall(calls int) time.Duration {
	loop := rt.NewLoop(sim.NewEngine())
	loop.Start(context.Background())
	defer loop.Stop()
	lat := make([]time.Duration, calls)
	for i := range lat {
		start := time.Now()
		loop.Call(func() {})
		lat[i] = time.Since(start)
	}
	return percentile(lat, 50)
}
