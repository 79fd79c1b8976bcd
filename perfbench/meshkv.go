package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"asvm/internal/dsm"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// The mesh-kv workload: three dsm nodes in this process, wired over real
// loopback TCP, home on node 0. Two closed-loop clients, one pinned to
// each non-home node, issue checked gets, puts and range-locked puts with
// no drain between ops. Each client owns its keys outright — a get must
// return the client's own last put — but the two clients' keys interleave
// on the same four pages, so every page ping-pongs between the nodes.
const (
	kvNodes            = 3
	kvClients          = 2
	kvPages            = 4
	kvKeysPerClient    = 16
	kvSegmentLen       = 5 * time.Second // timed phase of one mesh's life
	kvDrainRounds      = 5
	kvDrainTimeout     = 30 * time.Second
	kvGenSeedSalt      = 0x9E3779B97F4A7C15
	kvMaxPutValue      = 1 << 30
	kvGetPct, kvPutPct = 50, 40 // the rest are range-locked puts
)

// kvAddr places client c's key k: keys stripe across the pages, and the
// two clients' keys alternate inside each page.
func kvAddr(client, key int) vm.Addr {
	page := key % kvPages
	slot := (key/kvPages)*kvClients + client
	return vm.Addr(page*vm.PageSize + slot*8)
}

func kvPage(key int) int64 { return int64(key % kvPages) }

type kvKind uint8

const (
	kvGet kvKind = iota
	kvPut
	kvLockedPut
)

// kvOp is one client operation.
type kvOp struct {
	kind kvKind
	key  int
	val  uint64 // puts only
}

// kvGen is one client's op stream, a pure function of the seed and the
// client: the same seed always yields the same sequence.
type kvGen struct{ rng *sim.RNG }

func newKVGen(seed uint64, client int) *kvGen {
	return &kvGen{rng: sim.NewRNG(seed ^ uint64(client+1)*kvGenSeedSalt)}
}

func (g *kvGen) next() kvOp {
	op := kvOp{key: g.rng.Intn(kvKeysPerClient)}
	switch x := g.rng.Intn(100); {
	case x < kvGetPct:
		op.kind = kvGet
	case x < kvGetPct+kvPutPct:
		op.kind = kvPut
	default:
		op.kind = kvLockedPut
	}
	if op.kind != kvGet {
		op.val = 1 + uint64(g.rng.Intn(kvMaxPutValue))
	}
	return op
}

// kvConn is the part of a dsm node a client drives; *dsm.Node implements
// it, and tests wrap it to inject faults.
type kvConn interface {
	Read(addr vm.Addr) (uint64, time.Duration, error)
	Write(addr vm.Addr, v uint64) (time.Duration, error)
	Lock(lo, hi int64) (time.Duration, error)
	Unlock(lo, hi int64) (time.Duration, error)
}

// kvClient is one closed-loop client: its connection, its generator, the
// model of what its keys must hold, and its accounting.
type kvClient struct {
	id    int
	node  int
	conn  kvConn
	gen   *kvGen
	model [kvKeysPerClient]uint64
	tr    *tracer

	ops, failed int64
	lat         []time.Duration
	firstErr    error
}

func (c *kvClient) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// span records one call on the wall clock when tracing is on.
func (c *kvClient) span(kind spanKind, start time.Time) {
	if c.tr != nil {
		s := start.Sub(c.tr.t0)
		c.tr.op(kind, clkWall, c.node, s, time.Since(c.tr.t0))
	}
}

// do issues one op and checks its outcome against the model.
func (c *kvClient) do(op kvOp) {
	c.ops++
	addr := kvAddr(c.id, op.key)
	switch op.kind {
	case kvGet:
		t := time.Now()
		v, _, err := c.conn.Read(addr)
		c.span(spRead, t)
		switch {
		case err != nil:
			c.fail(fmt.Errorf("client %d get k%d: %w", c.id, op.key, err))
		case v != c.model[op.key]:
			c.fail(fmt.Errorf("client %d get k%d = %d, want %d", c.id, op.key, v, c.model[op.key]))
		}
	case kvPut:
		t := time.Now()
		_, err := c.conn.Write(addr, op.val)
		c.span(spWrite, t)
		if err != nil {
			c.fail(fmt.Errorf("client %d put k%d: %w", c.id, op.key, err))
			return
		}
		c.model[op.key] = op.val
	case kvLockedPut:
		pg := kvPage(op.key)
		t := time.Now()
		_, err := c.conn.Lock(pg, pg+1)
		c.span(spLock, t)
		if err != nil {
			c.fail(fmt.Errorf("client %d lock p%d: %w", c.id, pg, err))
			return
		}
		t = time.Now()
		_, werr := c.conn.Write(addr, op.val)
		c.span(spWrite, t)
		t = time.Now()
		_, uerr := c.conn.Unlock(pg, pg+1)
		c.span(spUnlock, t)
		switch {
		case werr != nil:
			c.fail(fmt.Errorf("client %d locked put k%d: %w", c.id, op.key, werr))
		case uerr != nil:
			c.fail(fmt.Errorf("client %d unlock p%d: %w", c.id, pg, uerr))
		default:
			c.model[op.key] = op.val
		}
	}
}

// loop is the closed loop: the next op starts when the previous one
// returned, until the deadline.
func (c *kvClient) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		op := c.gen.next()
		t := time.Now()
		c.do(op)
		c.lat = append(c.lat, time.Since(t))
	}
}

// kvSegment is one mesh's life: set-up, timed closed loop, drain, checks.
type kvSegment struct {
	setup, run        time.Duration
	attempted, failed int64 // every checked op, warm-up and final reads too
	timedOps          int64
	lat               []time.Duration
	heapMB            float64
	cost              hostCost
	errs              []error
	kvCounts
}

// kvCounts are the mesh's own counters: netx traffic summed over the
// nodes' transports, and the protocol counters of their runtimes.
type kvCounts struct {
	frames, bytes       uint64
	bounces, localNacks uint64
	dials, decodeErrs   uint64
	msgs, faults, invs  int64
}

func (c *kvCounts) add(o kvCounts) {
	c.frames += o.frames
	c.bytes += o.bytes
	c.bounces += o.bounces
	c.localNacks += o.localNacks
	c.dials += o.dials
	c.decodeErrs += o.decodeErrs
	c.msgs += o.msgs
	c.faults += o.faults
	c.invs += o.invs
}

// freeAddr reserves a loopback port for a node's transport.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// openKVMesh opens the three nodes over loopback TCP.
func openKVMesh() ([]*dsm.Node, error) {
	cfg := &dsm.MeshConfig{Region: "mesh-kv", Pages: kvPages, Home: 0}
	for i := 0; i < kvNodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		cfg.Nodes = append(cfg.Nodes, dsm.NodeSpec{ID: i, Xport: addr})
	}
	var nodes []*dsm.Node
	for i := 0; i < kvNodes; i++ {
		nd, err := dsm.Open(cfg, i)
		if err != nil {
			closeNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func closeNodes(nodes []*dsm.Node) {
	for _, nd := range nodes {
		nd.Close()
	}
}

func drainKV(nodes []*dsm.Node) error {
	pollers := make([]dsm.QuietPoller, len(nodes))
	for i, nd := range nodes {
		pollers[i] = nd
	}
	return dsm.DrainPollers(pollers, kvDrainRounds, kvDrainTimeout)
}

// runKVSegment builds a fresh mesh, warms it up, runs both clients for d,
// drains, verifies every key from the home node, and closes the mesh.
func runKVSegment(seed uint64, seg int, d time.Duration, tr *tracer, wrap func(kvConn) kvConn) (*kvSegment, error) {
	s := &kvSegment{}
	var nodes []*dsm.Node
	var clients []*kvClient
	var setupErr error
	s.setup = tr.phase(spSetup, func() {
		if nodes, setupErr = openKVMesh(); setupErr != nil {
			return
		}
		for c := 0; c < kvClients; c++ {
			node := c + 1
			var conn kvConn = nodes[node]
			if wrap != nil {
				conn = wrap(conn)
			}
			clients = append(clients, &kvClient{id: c, node: node, conn: conn,
				gen: newKVGen(seed^uint64(seg)<<32, c), tr: tr})
		}
		// Warm-up: lazy dials and first touches, one put and one get per
		// page from each client, then quiesce.
		for _, cl := range clients {
			for k := 0; k < kvPages; k++ {
				cl.do(kvOp{kind: kvPut, key: k, val: uint64(1000*(cl.id+1) + k)})
				cl.do(kvOp{kind: kvGet, key: k})
			}
		}
		setupErr = drainKV(nodes)
	})
	if setupErr != nil {
		closeNodes(nodes)
		return nil, fmt.Errorf("mesh-kv set-up: %w", setupErr)
	}
	defer closeNodes(nodes)
	warm := int64(0)
	for _, cl := range clients {
		warm += cl.ops
	}

	a := takeSnap()
	s.run = tr.phase(spRun, func() {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *kvClient) {
				defer wg.Done()
				cl.loop(deadline)
			}(cl)
		}
		wg.Wait()
	})
	s.cost.add(a, takeSnap())
	s.heapMB = liveHeapMB()

	tr.phase(spDrain, func() {
		if err := drainKV(nodes); err != nil {
			s.failed++
			s.attempted++
			s.errs = append(s.errs, err)
		}
	})
	tr.phase(spCheck, func() {
		// Every key, read back through the home node, must hold the value
		// its client last put: the clients' writes are all visible
		// mesh-wide once the mesh is quiet.
		home := &kvClient{node: 0, conn: nodes[0], tr: tr}
		for _, cl := range clients {
			home.id, home.model = cl.id, cl.model
			for k := 0; k < kvKeysPerClient; k++ {
				home.do(kvOp{kind: kvGet, key: k})
			}
		}
		s.attempted += home.ops
		s.failed += home.failed
		if home.firstErr != nil {
			s.errs = append(s.errs, home.firstErr)
		}
	})

	for _, cl := range clients {
		s.attempted += cl.ops
		s.failed += cl.failed
		s.timedOps += cl.ops
		s.lat = append(s.lat, cl.lat...)
		if cl.firstErr != nil {
			s.errs = append(s.errs, cl.firstErr)
		}
	}
	s.timedOps -= warm
	for _, nd := range nodes {
		st := nd.TransportStats()
		ctr := nd.Counters()
		s.add(kvCounts{
			frames: st.FramesSent, bytes: st.BytesSent,
			bounces: st.BouncesSent + st.BouncesRecv, localNacks: st.LocalNacks,
			dials: st.Dials, decodeErrs: st.DecodeErrors,
			msgs: ctr["msgs"], faults: ctr["faults"], invs: ctr["invalidations"],
		})
	}
	return s, nil
}

func runMeshKV(o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	r := newReport()
	var setups, heaps, rates []float64
	var plainLat []time.Duration
	var plainOps, tracedOps int64
	var plainRun, tracedRun time.Duration
	var cost hostCost
	var all kvCounts
	// A fresh mesh per segment: set-up is measured once per segment, and a
	// traced run alternates untraced and traced segments.
	segments := int((o.seconds + kvSegmentLen - 1) / kvSegmentLen)
	if segments < 4 {
		segments = 4
	}
	for seg := 0; seg < segments; seg++ {
		on := o.trace && seg%2 == 1
		var t *tracer
		if on {
			t = tr
		}
		s, err := runKVSegment(o.seed, seg, o.seconds/time.Duration(segments), t, o.wrapConn)
		if err != nil {
			return nil, err
		}
		for _, e := range s.errs {
			r.notef("segment %d: %v", seg, e)
		}
		r.attempted += s.attempted
		r.failed += s.failed
		setups = append(setups, s.setup.Seconds())
		all.add(s.kvCounts)
		if on {
			tracedOps += s.timedOps
			tracedRun += s.run
			continue
		}
		heaps = append(heaps, s.heapMB)
		plainLat = append(plainLat, s.lat...)
		plainOps += s.timedOps
		plainRun += s.run
		rates = append(rates, float64(s.timedOps)/s.run.Seconds())
		cost.merge(s.cost)
	}

	r.e2e["setup_s"] = median(setups)
	r.e2e["ops_per_s"] = median(rates)
	r.e2e["live_heap_mb"] = maxOf(heaps)
	r.notef("%d segments, %d timed ops untraced; op latency: %d samples, %d beyond p99",
		segments, plainOps, len(plainLat), beyondP99(len(plainLat)))

	l := r.layer
	l["op_p50_us"] = us(percentile(plainLat, 50))
	l["op_p99_us"] = us(percentile(plainLat, 99))
	l["op_samples"] = float64(len(plainLat))
	ops := float64(r.attempted)
	l["netx.frames_per_op"] = float64(all.frames) / ops
	l["netx.bytes_per_op"] = float64(all.bytes) / ops
	l["netx.bounces"] = float64(all.bounces)
	l["netx.local_nacks"] = float64(all.localNacks)
	l["netx.dials"] = float64(all.dials)
	l["netx.decode_errors"] = float64(all.decodeErrs)
	l["mesh_kv.msgs_per_op"] = float64(all.msgs) / ops
	l["mesh_kv.faults_per_op"] = float64(all.faults) / ops
	l["mesh_kv.invalidations_per_op"] = float64(all.invs) / ops
	cost.layer(l, plainOps)
	if tr != nil {
		untraced := float64(plainOps) / plainRun.Seconds()
		withTrace := float64(tracedOps) / tracedRun.Seconds()
		l["trace.overhead_pct"] = (untraced/withTrace - 1) * 100
		r.tr = tr
	}
	return r, nil
}
