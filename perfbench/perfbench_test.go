package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"asvm/internal/exp"
	"asvm/internal/machine"
	"asvm/internal/vm"
	"asvm/internal/workload"
)

// The generators are pure functions of the seed: the same seed gives the
// same inputs, another seed gives other inputs.
func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	scale := func(seed uint64) [][]exp.ScaleOp {
		cell := scaleCell(seed)
		out := make([][]exp.ScaleOp, cell.Nodes)
		for n := range out {
			out[n] = exp.GenScaleOps(cell, n)
		}
		return out
	}
	if !reflect.DeepEqual(scale(7), scale(7)) {
		t.Error("sim-scale streams differ at one seed")
	}
	if reflect.DeepEqual(scale(7), scale(8)) {
		t.Error("sim-scale streams ignore the seed")
	}

	// EM3D draws its remote edges from the seed, but at Table 3 settings
	// the draws cover every page of each ghost window: the page sets, and
	// so every simulated result of sim-em3d, are the same at every seed.
	plan := func(seed uint64) [][]em3dPlan {
		var out [][]em3dPlan
		for _, c := range em3dCells(seed) {
			out = append(out, planEM3D(c.cfg))
		}
		return out
	}
	if !reflect.DeepEqual(plan(7), plan(8)) {
		t.Error("sim-em3d plans now depend on the seed; README.md says they do not")
	}
	small := workload.DefaultEM3D(64_000, 16, 1)
	small.GhostCells = 4096 // wider windows than the draws can cover
	smallPlan := func(seed uint64) []em3dPlan { small.Seed = seed; return planEM3D(small) }
	if !reflect.DeepEqual(smallPlan(7), smallPlan(7)) || reflect.DeepEqual(smallPlan(7), smallPlan(8)) {
		t.Error("EM3D plans are not a function of the seed")
	}

	kv := func(seed uint64, client int) []kvOp {
		g := newKVGen(seed, client)
		ops := make([]kvOp, 1000)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	if !reflect.DeepEqual(kv(7, 0), kv(7, 0)) {
		t.Error("mesh-kv streams differ at one seed")
	}
	if reflect.DeepEqual(kv(7, 0), kv(8, 0)) || reflect.DeepEqual(kv(7, 0), kv(7, 1)) {
		t.Error("mesh-kv streams ignore the seed or the client")
	}
	kinds := map[kvKind]int{}
	for _, op := range kv(7, 0) {
		kinds[op.kind]++
	}
	if kinds[kvGet] == 0 || kinds[kvPut] == 0 || kinds[kvLockedPut] == 0 {
		t.Errorf("mesh-kv mix is missing an op kind: %v", kinds)
	}
}

// Every mesh-kv key belongs to exactly one client, yet every page holds
// keys of both clients: the sharing is false sharing only.
func TestKVKeysPrivateButPagesShared(t *testing.T) {
	owner := map[vm.Addr]int{}
	clientsOnPage := map[int]map[int]bool{}
	for c := 0; c < kvClients; c++ {
		for k := 0; k < kvKeysPerClient; k++ {
			a := kvAddr(c, k)
			if a%8 != 0 {
				t.Fatalf("client %d key %d at unaligned %#x", c, k, a)
			}
			if prev, taken := owner[a]; taken {
				t.Fatalf("client %d key %d shares %#x with client %d", c, k, a, prev)
			}
			owner[a] = c
			pg := int(a / vm.PageSize)
			if pg >= kvPages || int64(pg) != kvPage(k) {
				t.Fatalf("client %d key %d on page %d, want %d of %d", c, k, pg, kvPage(k), kvPages)
			}
			if clientsOnPage[pg] == nil {
				clientsOnPage[pg] = map[int]bool{}
			}
			clientsOnPage[pg][c] = true
		}
	}
	for pg := 0; pg < kvPages; pg++ {
		if len(clientsOnPage[pg]) != kvClients {
			t.Errorf("page %d holds keys of %d clients, want %d", pg, len(clientsOnPage[pg]), kvClients)
		}
	}
}

// corruptRead returns a wrong value on one read of a real node.
type corruptRead struct {
	kvConn
	reads, bad int
}

func (c *corruptRead) Read(addr vm.Addr) (uint64, time.Duration, error) {
	v, d, err := c.kvConn.Read(addr)
	c.reads++
	if c.reads == c.bad {
		v ^= 0xdead
	}
	return v, d, err
}

// A wrong value read back from the real mesh is a failed op: it shows up
// in fail_frac and makes the run incorrect.
func TestWrongReadCountsInFailFrac(t *testing.T) {
	o := options{workload: "mesh-kv", seed: 3, seconds: time.Second,
		wrapConn: func(c kvConn) kvConn { return &corruptRead{kvConn: c, bad: 2} }}
	r, err := runMeshKV(o)
	if err != nil {
		t.Fatal(err)
	}
	// Both clients of each segment corrupt their second read (a warm-up
	// get, whose expected value is known), so every segment fails two ops.
	segments := int64(4)
	if r.failed != 2*segments {
		t.Fatalf("failed = %d of %d, want %d; notes:\n%v", r.failed, r.attempted, 2*segments, r.notes)
	}
	if r.failFrac() <= 0 {
		t.Fatalf("fail_frac = %v with %d failed ops", r.failFrac(), r.failed)
	}

	clean, err := runMeshKV(options{workload: "mesh-kv", seed: 3, seconds: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("uncorrupted run failed %d ops: %v", clean.failed, clean.notes)
	}
}

// Every reported p99 has at least ten samples beyond it, even on the
// shortest run the benchmark accepts, and each workload's checks pass.
func TestP99HasTenSamplesBeyond(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		r, err := w.run(options{workload: w.name, seed: 1, seconds: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, r.failed, r.attempted, r.notes)
		}
		n := r.layer["sim_fault_samples"] + r.layer["op_samples"]
		if beyond := beyondP99(int(n)); beyond < 10 {
			t.Errorf("%s: p99 over %v samples has %d beyond it, want >= 10", w.name, n, beyond)
		}
	}
}

// The sim-scale iteration is the scale sweep's cell: on a small cell it
// reproduces exp.RunScaleCell's latency summary and forwarding ledger.
func TestScaleIterMatchesRunScaleCell(t *testing.T) {
	cell := scaleCell(5)
	cell.Nodes, cell.OpsPerNode, cell.SamplePages = 64, 12, 0
	want, err := exp.RunScaleCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	it := scaleIter(cell, nil)
	if it.err != nil {
		t.Fatal(it.err)
	}
	lat := append([]time.Duration(nil), it.lat...)
	got := []interface{}{int(it.ops), len(lat), percentile(lat, 50), percentile(lat, 99), it.makespan,
		int64(it.counts["asvm.data_requests"]), int64(it.counts["asvm.fwd_global"]), int64(it.counts["asvm.ring_scan_hops"])}
	exp := []interface{}{want.Touches, want.Faults, want.P50, want.P99, time.Duration(want.End),
		want.DataRequests, want.FwdGlobal, want.RingScanHops}
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("benchmark cell %v, exp.RunScaleCell %v", got, exp)
	}
	if again := scaleIter(cell, nil); again.fingerprint() != it.fingerprint() {
		t.Fatalf("repeat differs:\n%s\n%s", again.fingerprint(), it.fingerprint())
	}
}

// The sim-em3d machines run EM3D exactly as workload.RunEM3D does: the
// same computation-loop time, for both systems.
func TestEM3DMatchesRunEM3D(t *testing.T) {
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		cfg := workload.DefaultEM3D(64_000, 16, 1)
		cfg.Seed = 9
		want, err := workload.RunEM3D(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		it := &simIter{}
		got := em3dRun(it, em3dCell{sys, cfg}, nil)
		if it.err != nil {
			t.Fatal(it.err)
		}
		if got != want.Seconds() {
			t.Errorf("%v: benchmark loop %vs, workload.RunEM3D %vs", sys, got, want.Seconds())
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units and reasons.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(group string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", group, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", group, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// The result line carries exactly the promised metric set: the end-to-end
// metrics on a plain run, every per-layer metric on a traced run, which
// also writes its spans.
func TestResultLineCarriesTheMetricSet(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []struct {
		trace string
		want  []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut strings.Builder
		args := []string{"--workload", "mesh-kv", "--seed", "2", "--seconds", "1", "--trace", mode.trace, "--trace-dir", dir}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", mode.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", mode.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("trace %s: %d metrics, want %d", mode.trace, len(res.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", mode.trace, m.Name, got, m.Unit)
			}
		}
		if !strings.HasPrefix(lines[0], "env {") {
			t.Errorf("trace %s: first line %q is not the environment record", mode.trace, lines[0])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "mesh-kv-seed2.csv")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

// Bad arguments exit nonzero without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mesh-kv", "--seconds", "0"},
		{"--workload", "mesh-kv", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// The memory-pressure regime is left out because ASVM livelocks there
// instead of paging (README.md). This pins the reproducer: when it stops
// panicking, the livelock is fixed and the regime can become a workload.
func TestPagingRegimeStillLivelocks(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "forwarding livelock") {
			t.Errorf("EM3D at 8 MB nodes: got %q, want the forwarding livelock panic", msg)
		}
	}()
	cfg := workload.DefaultEM3D(64_000, 16, 1)
	cfg.MemMB = 8 // the dataset fills ~90 % of total node memory
	_, err := workload.RunEM3D(machine.SysASVM, cfg)
	t.Errorf("EM3D at 8 MB nodes finished (err %v): the livelock is gone, so add the paging workload", err)
}
