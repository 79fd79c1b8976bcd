package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"asvm/internal/machine"
)

func TestRunCellsOrderedResults(t *testing.T) {
	// Later cells finish first (earlier cells sleep longer), so completion
	// order is roughly reversed — results must still come back by index.
	for _, workers := range []int{1, 2, 8} {
		out, err := RunCells(workers, 20, func(i int) (int, error) {
			time.Sleep(time.Duration(20-i) * time.Millisecond / 4)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunCellsFirstErrorByIndex(t *testing.T) {
	boom3 := errors.New("cell three failed")
	boom7 := errors.New("cell seven failed")
	for _, workers := range []int{1, 4} {
		out, err := RunCells(workers, 10, func(i int) (int, error) {
			switch i {
			case 3:
				// Make the higher-index failure finish first under
				// parallelism; the reported error must still be cell 3's.
				time.Sleep(10 * time.Millisecond)
				return 0, boom3
			case 7:
				return 0, boom7
			}
			return i, nil
		})
		if !errors.Is(err, boom3) {
			t.Fatalf("workers=%d: err = %v, want cell 3's error", workers, err)
		}
		if out[9] != 9 {
			t.Fatalf("workers=%d: completed cells not returned alongside error", workers)
		}
	}
}

func TestRunCellsEdgeCases(t *testing.T) {
	if out, err := RunCells(4, 0, func(i int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	// More workers than cells must not deadlock or double-run cells.
	var runs atomic.Int32
	out, err := RunCells(32, 3, func(i int) (int, error) {
		runs.Add(1)
		return i, nil
	})
	if err != nil || len(out) != 3 || runs.Load() != 3 {
		t.Fatalf("out=%v err=%v runs=%d", out, err, runs.Load())
	}
}

// TestSerialParallelByteIdentical is the determinism regression test for
// the parallel harness: for the same seeds, every experiment's rendered
// output must be byte-identical whether cells run on one worker or many.
// Parallelism may only change wall-clock time.
func TestSerialParallelByteIdentical(t *testing.T) {
	experiments := []struct {
		name string
		run  func(w *bytes.Buffer, workers int) error
	}{
		{"table1", func(w *bytes.Buffer, k int) error { return Table1(w, 1, k) }},
		{"fig10", func(w *bytes.Buffer, k int) error { return Figure10(w, []int{1, 2, 4}, 1, k) }},
		{"fig11", func(w *bytes.Buffer, k int) error { return Figure11(w, []int{1, 2}, 1, k) }},
		{"table2", func(w *bytes.Buffer, k int) error { return Table2(w, []int{1, 2}, 1, k) }},
		{"table3", func(w *bytes.Buffer, k int) error { return Table3(w, []int{64000}, []int{1, 2}, 2, 1, k) }},
		{"dist", func(w *bytes.Buffer, k int) error { return Distribution(w, 4, 8, 2, 1, k) }},
		{"scale", func(w *bytes.Buffer, k int) error { return Scale(w, 1, k, true) }},
		{"ablation-forwarding", func(w *bytes.Buffer, k int) error { return AblationForwarding(w, 4, 2, 1, k) }},
		{"ablation-transport", func(w *bytes.Buffer, k int) error { return AblationTransport(w, 1, k) }},
		{"ablation-internode-paging", func(w *bytes.Buffer, k int) error { return AblationInternodePaging(w, 1, k) }},
		{"ablation-chain-threads", func(w *bytes.Buffer, k int) error { return AblationChainThreads(w, 1, k) }},
	}
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			var serial bytes.Buffer
			if err := e.run(&serial, 1); err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{2, 8} {
				var parallel bytes.Buffer
				if err := e.run(&parallel, workers); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
					t.Fatalf("workers=%d output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
						workers, serial.String(), parallel.String())
				}
			}
		})
	}
}

// TestSnapshotQuick checks CollectSnapshot fills every section and that the
// simulated metrics (not the wall-clock ones) are reproducible.
func TestSnapshotQuick(t *testing.T) {
	a, err := CollectSnapshot(1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.EngineEventsPerSec <= 0 || a.EngineEvents == 0 {
		t.Fatalf("engine throughput not measured: %+v", a)
	}
	if len(a.Table1MS["ASVM"]) != 7 || len(a.Table1MS["XMM"]) != 7 {
		t.Fatalf("table1 section incomplete: %v", a.Table1MS)
	}
	for _, series := range Table2Series {
		if len(a.Table2MBs[series]) != len(a.Table2Nodes) {
			t.Fatalf("table2 series %q incomplete: %v", series, a.Table2MBs)
		}
	}
	if len(a.Fig11FitMS["ASVM"]) != 2 || len(a.Fig11FitMS["XMM"]) != 2 {
		t.Fatalf("fig11 fit missing: %v", a.Fig11FitMS)
	}
	if len(a.ScaleNodes) == 0 || a.ScaleNodes[0] != 64 || a.ScaleFaultP50MS[0] <= 0 ||
		a.ScaleRingScanHops[0] == 0 {
		t.Fatalf("scale section incomplete: nodes=%v p50=%v hops=%v",
			a.ScaleNodes, a.ScaleFaultP50MS, a.ScaleRingScanHops)
	}
	b, err := CollectSnapshot(1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Table1MS) != fmt.Sprint(b.Table1MS) ||
		fmt.Sprint(a.Table2MBs) != fmt.Sprint(b.Table2MBs) ||
		fmt.Sprint(a.Fig11FitMS) != fmt.Sprint(b.Fig11FitMS) ||
		fmt.Sprint(a.ScaleFaultP99MS) != fmt.Sprint(b.ScaleFaultP99MS) ||
		fmt.Sprint(a.ScaleRingScanHops) != fmt.Sprint(b.ScaleRingScanHops) {
		t.Fatal("simulated snapshot metrics changed with worker count")
	}
}

func TestTable1LatenciesMatchesTable1(t *testing.T) {
	lats, err := Table1Latencies(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rendered bytes.Buffer
	if err := Table1(&rendered, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Spot-check: the first ASVM latency appears in the rendered table.
	first := fmt.Sprintf("%.2f", float64(lats[machine.SysASVM][0])/float64(time.Millisecond))
	if !bytes.Contains(rendered.Bytes(), []byte(first)) {
		t.Fatalf("rendered Table 1 missing measured value %s:\n%s", first, rendered.String())
	}
}
