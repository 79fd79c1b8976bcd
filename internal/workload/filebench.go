package workload

import (
	"fmt"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/machine"
	"asvm/internal/vm"
)

// FileBenchBytes is the benchmark file size (paper §4.2: 4 MB).
const FileBenchBytes = 4 << 20

// FileBenchPages is the file size in pages.
const FileBenchPages = FileBenchBytes / vm.PageSize

// FileClusterSize returns the node count the file benchmarks use for
// nNodes active clients (one extra so the I/O node stays off the clients).
func FileClusterSize(nNodes int) int {
	total := nNodes + 1
	if total < 2 {
		total = 2
	}
	return total
}

// fileUsers returns the client node indices for the benchmarks (node 0 —
// the I/O node — stays off the client list except in the 1-node corner).
func fileUsers(total, nNodes int) []int {
	users := make([]int, nNodes)
	for i := range users {
		users[i] = i + 1
		if users[i] >= total {
			users[i] = 0
		}
	}
	if nNodes == 1 {
		users = []int{1}
	}
	return users
}

// MeasureFileWrite reproduces Table 2's write rows: nNodes map the same
// (initially empty) 4 MB file and each writes a disjoint section using
// asynchronous writes (dirty pages are not forced out). Returned is the
// mean per-node effective transfer rate in MB/s.
func MeasureFileWrite(sys machine.System, nNodes int, seed uint64) (float64, error) {
	p := machine.DefaultParams(FileClusterSize(nNodes))
	p.System = sys
	p.Seed = seed
	rate, _, err := fileWriteOn(machine.New(p), nNodes)
	return rate, err
}

// fileWriteOn runs the write benchmark on an existing cluster (which must
// have FileClusterSize(nNodes) nodes), returning the rate and the file
// region for protocol-state validation.
func fileWriteOn(c *machine.Cluster, nNodes int) (float64, *machine.Region, error) {
	users := fileUsers(c.P.Nodes, nNodes)
	w, err := simhost.NewWorld(c, []simhost.Spec{
		{Name: "bench", Pages: FileBenchPages, Nodes: users, File: true},
	})
	if err != nil {
		return 0, nil, err
	}
	if err := w.Prepare(users...); err != nil {
		return 0, nil, err
	}

	perNode := FileBenchPages / nNodes
	times := make([]time.Duration, nNodes)
	for i, nIdx := range users {
		i := i
		w.Go(nIdx, "writer", func(h app.Host) error {
			t0 := h.Now()
			base := i * perNode
			for pg := 0; pg < perNode; pg++ {
				if err := h.Write(0, int64((base+pg)*vm.PageSize), 0); err != nil {
					return err
				}
			}
			times[i] = h.Now() - t0
			return nil
		})
	}
	if err := w.Run(); err != nil {
		return 0, nil, err
	}
	var sumRate float64
	for i := range times {
		if times[i] == 0 {
			return 0, nil, fmt.Errorf("workload: writer %d made no progress", i)
		}
		bytes := float64(perNode * vm.PageSize)
		sumRate += bytes / times[i].Seconds() / 1e6
	}
	return sumRate / float64(nNodes), w.Region(0), nil
}

// MeasureFileRead reproduces Table 2's read rows: nNodes read the entire
// preloaded 4 MB file in parallel. Returned is the mean per-node rate in
// MB/s.
func MeasureFileRead(sys machine.System, nNodes int, seed uint64) (float64, error) {
	p := machine.DefaultParams(FileClusterSize(nNodes))
	p.System = sys
	p.Seed = seed
	rate, _, err := fileReadOn(machine.New(p), nNodes)
	return rate, err
}

// fileReadOn runs the read benchmark on an existing cluster (which must
// have FileClusterSize(nNodes) nodes).
func fileReadOn(c *machine.Cluster, nNodes int) (float64, *machine.Region, error) {
	users := make([]int, nNodes)
	for i := range users {
		users[i] = i + 1
	}
	if nNodes == 1 {
		users = []int{1}
	}
	w, err := simhost.NewWorld(c, []simhost.Spec{
		{Name: "bench", Pages: FileBenchPages, Nodes: users, File: true, Preload: true},
	})
	if err != nil {
		return 0, nil, err
	}
	if err := w.Prepare(users...); err != nil {
		return 0, nil, err
	}

	times := make([]time.Duration, nNodes)
	for i, nIdx := range users {
		i := i
		w.Go(nIdx, "reader", func(h app.Host) error {
			t0 := h.Now()
			// Stagger starting offsets so nodes don't convoy on the same
			// page, like independent readers would.
			start := (i * FileBenchPages) / max(nNodes, 1)
			for k := 0; k < FileBenchPages; k++ {
				pg := (start + k) % FileBenchPages
				if _, err := h.Read(0, int64(pg*vm.PageSize)); err != nil {
					return err
				}
			}
			times[i] = h.Now() - t0
			return nil
		})
	}
	if err := w.Run(); err != nil {
		return 0, nil, err
	}
	var sumRate float64
	for i := range times {
		if times[i] == 0 {
			return 0, nil, fmt.Errorf("workload: reader %d made no progress", i)
		}
		sumRate += float64(FileBenchBytes) / times[i].Seconds() / 1e6
	}
	return sumRate / float64(nNodes), w.Region(0), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
