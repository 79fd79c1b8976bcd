package dsm

import (
	"net"
	"sync"
	"testing"
	"time"

	"asvm/internal/vm"
)

// tcpMesh opens an n-node dsm mesh over real loopback TCP, home on node 0.
func tcpMesh(t *testing.T, n int, pages int64) []*Node {
	t.Helper()
	cfg := &MeshConfig{Region: "thrash", Pages: pages, Home: 0}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving a port: %v", err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cfg.Nodes = append(cfg.Nodes, NodeSpec{ID: i, Xport: addr})
	}
	var nodes []*Node
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	for i := 0; i < n; i++ {
		nd, err := Open(cfg, i)
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	return nodes
}

// thrashBound caps data requests per kernel fault when two nodes fight
// over one page. The counter ticks twice for one request (the kernel
// counts it as sent, the node's ASVM instance as received), so a fault
// resolved by a single request reads 2. Delivering a grant and a
// competing request in one batch, without letting the woken thread run
// in between, read 20-100 here: the page left before the thread could
// touch it, and every fault became a string of requests.
const thrashBound = 3.0

// Two non-home nodes write one page concurrently, over and over. Each
// write faults the page over from the other node; the faulting thread
// must get to use the page it was granted before the competing request
// ships it away again. If it does not, every fault costs a string of
// data requests, and this ratio is what shows it.
func TestTCPMeshPingPongDoesNotThrash(t *testing.T) {
	nodes := tcpMesh(t, 3, 1)
	const writesPerNode = 1000
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 1; c <= 2; c++ {
		wg.Add(1)
		go func(nd *Node, slot vm.Addr) {
			defer wg.Done()
			for i := 1; i <= writesPerNode; i++ {
				if _, err := nd.Write(slot, uint64(i)); err != nil {
					errs <- err
					return
				}
			}
		}(nodes[c], vm.Addr(8*c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("write: %v", err)
	}
	drainNodes(t, nodes, 10*time.Second)

	for c := 1; c <= 2; c++ {
		v, _, err := nodes[0].Read(vm.Addr(8 * c))
		if err != nil {
			t.Fatalf("read back slot %d: %v", c, err)
		}
		if v != writesPerNode {
			t.Fatalf("slot %d holds %d, want %d", c, v, writesPerNode)
		}
	}

	var reqs, faults int64
	for _, nd := range nodes {
		ctr := nd.Counters()
		reqs += ctr["data_requests"]
		faults += ctr["faults"]
	}
	if faults == 0 {
		t.Fatal("no kernel faults: the page never moved")
	}
	ratio := float64(reqs) / float64(faults)
	t.Logf("%d data requests over %d faults: %.2f per fault", reqs, faults, ratio)
	if ratio > thrashBound {
		t.Fatalf("%.2f data requests per fault (%d/%d), want <= %.1f: granted pages are taken away before the faulting thread uses them",
			ratio, reqs, faults, thrashBound)
	}
}
