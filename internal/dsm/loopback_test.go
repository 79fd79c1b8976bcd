package dsm

import (
	"runtime"
	"testing"
	"time"
)

// The scenario-level parity tests (real mesh vs simulated twin through
// the portable app layer) live in app/dsmhost, which imports this
// package. What belongs here is the machinery underneath them: the
// net.Pipe mesh builder, the drain loop, and the control plane.

// pipeMesh opens an n-node dsm mesh connected by net.Pipe.
func pipeMesh(t *testing.T, n int, pages int64) []*Node {
	t.Helper()
	nodes, stop, err := PipeMesh(n, pages)
	if err != nil {
		t.Fatalf("pipe mesh: %v", err)
	}
	t.Cleanup(stop)
	return nodes
}

// drainNodes waits until every node is locally quiet and total frame
// traffic stops moving — DrainPollers over the in-process seam.
func drainNodes(t *testing.T, nodes []*Node, timeout time.Duration) {
	t.Helper()
	pollers := make([]QuietPoller, len(nodes))
	for i, nd := range nodes {
		pollers[i] = nd
	}
	if err := DrainPollers(pollers, 3, timeout); err != nil {
		t.Fatalf("mesh did not drain: %v", err)
	}
}

// A minimal end-to-end data-plane check at the Node API: the value
// written on one node is the value read on another, and the mesh drains.
func TestPipeMeshReadYourWrites(t *testing.T) {
	nodes := pipeMesh(t, 2, 4)
	if _, err := nodes[0].Write(8, 41); err != nil {
		t.Fatalf("write: %v", err)
	}
	drainNodes(t, nodes, 10*time.Second)
	v, _, err := nodes[1].Read(8)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v != 41 {
		t.Fatalf("read %d, want 41", v)
	}
	drainNodes(t, nodes, 10*time.Second)
}

// The control plane end to end, in-process: a CtrlServer fronting a pipe
// mesh node, driven through a Client over real TCP.
func TestControlPlane(t *testing.T) {
	const n = 2
	nodes := pipeMesh(t, n, 4)

	srvs := make([]*CtrlServer, n)
	clients := make([]*Client, n)
	for i, nd := range nodes {
		s, err := ServeCtrl(nd, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("control server %d: %v", i, err)
		}
		t.Cleanup(s.Close)
		srvs[i] = s
		c, err := DialCtrl(s.Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("control client %d: %v", i, err)
		}
		t.Cleanup(c.Close)
		clients[i] = c
	}

	if _, err := clients[0].Write(8, 77); err != nil {
		t.Fatalf("ctrl write: %v", err)
	}
	v, lat, err := clients[1].Read(8)
	if err != nil {
		t.Fatalf("ctrl read: %v", err)
	}
	if v != 77 {
		t.Fatalf("ctrl read returned %d, want 77", v)
	}
	if lat <= 0 {
		t.Errorf("ctrl read reported non-positive latency %v", lat)
	}

	// Range locks through the control plane.
	if _, err := clients[1].Lock(0, 1); err != nil {
		t.Fatalf("ctrl lock: %v", err)
	}
	if _, err := clients[1].Unlock(0, 1); err != nil {
		t.Fatalf("ctrl unlock: %v", err)
	}

	if err := DrainMesh(clients, 3, 10*time.Second); err != nil {
		t.Fatalf("drain over control plane: %v", err)
	}
	ctrs, err := clients[0].Counters()
	if err != nil {
		t.Fatalf("ctrl counters: %v", err)
	}
	if ctrs["faults"] == 0 {
		t.Errorf("node 0 reports no faults after a write: %v", ctrs)
	}

	// The stats reply surfaces the protocol-health counters: an ownership
	// transfer has happened, so pages changed protocol state somewhere.
	var transitions int64
	for _, c := range clients {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("ctrl stats: %v", err)
		}
		if st.Frames == 0 {
			t.Error("stats reports zero frames after cross-node traffic")
		}
		transitions += st.ProtoTransitions
	}
	if transitions == 0 {
		t.Error("stats reports zero proto_transitions after an ownership transfer")
	}

	// Shutdown request closes the server's Shutdown gate.
	if err := clients[0].Shutdown(); err != nil {
		t.Fatalf("ctrl shutdown: %v", err)
	}
	select {
	case <-srvs[0].Shutdown:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown request did not trip the server's Shutdown gate")
	}
}

// TestOpsRetainNoTimers pins the per-op timeout timer leak: each op arms
// an opTimeout timer, and under the module's go 1.22 timer semantics one
// that is never stopped stays on the heap until it fires. Retained heap
// over many fast local ops must stay flat, not grow by a timer per op.
func TestOpsRetainNoTimers(t *testing.T) {
	nodes := pipeMesh(t, 2, 4)
	if _, err := nodes[0].Write(8, 1); err != nil {
		t.Fatalf("write: %v", err)
	}
	drainNodes(t, nodes, 10*time.Second)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const ops = 20000
	before := heap()
	for i := 0; i < ops; i++ {
		if _, _, err := nodes[0].Read(8); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	after := heap()
	var grew uint64
	if after > before {
		grew = after - before
	}
	t.Logf("retained heap grew %d B over %d ops (%.1f B/op)", grew, ops, float64(grew)/ops)
	if perOp := float64(grew) / ops; perOp > 64 {
		t.Fatalf("retained heap grew %.1f B/op over %d ops, want <= 64 (a leaked timer per op?)", perOp, ops)
	}
}
