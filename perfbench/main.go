// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed host-time budget and prints, as its last line, one
// JSON object: whether every output checked out, how many ops were
// attempted and failed, and the end-to-end metrics — or, with --trace 1,
// the per-layer metrics of a traced pass. See README.md for the workloads,
// the metric → layer map and what is deliberately left out.
//
//	bash perfbench/run.sh --workload sim-scale --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchWorkload is one named set of inputs the benchmark drives.
type benchWorkload struct {
	name string
	why  string // BENCHMARK.json carries the same line
	run  func(options) (*report, error)
}

var workloads = []benchWorkload{
	{"sim-scale",
		"1024-node zipf churn under ASVM: engine, mesh routing, STS and dynamic/global forwarding, with no NORMA, XMM or eviction",
		runSimScale},
	{"sim-em3d",
		"the paper's EM3D at Table 3 settings, ASVM then XMM: vm fault path, static forwarding, barriers, NORMA and the XMM manager",
		runSimEM3D},
	{"mesh-kv",
		"three real dsm nodes over loopback TCP, two pinned clients on falsely shared pages: netx framing, wire codec, rt injection",
		runMeshKV},
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration // host time the timed phases must add up to
	trace    bool
	traceDir string // where a traced run writes its spans

	// wrapConn, when set, interposes on mesh-kv's client connections;
	// tests use it to inject wrong reads.
	wrapConn func(kvConn) kvConn
}

// report is what a workload hands back: op accounting, the metrics it
// measured, and human-readable notes printed ahead of the result line.
type report struct {
	attempted, failed int64
	e2e, layer        map[string]float64
	notes             []string
	tr                *tracer // non-nil on traced runs
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// failFrac is failed ÷ attempted ops.
func (r *report) failFrac() float64 {
	return float64(r.failed) / float64(max(r.attempted, 1))
}

func (r *report) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// resultMetric is one metric in the result line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the benchmark's contract.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "host seconds the timed phases add up to")
	traceFlag := fs.Int("trace", 0, "1: traced pass reporting the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, have %d\n", *seconds)
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, have %d\n", *traceFlag)
		return 2
	}
	o := options{workload: w.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, traceDir: *traceDir}

	start := takeSnap()
	r, err := w.run(o)
	if err == nil && o.trace {
		err = finishTrace(o, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	end := takeSnap()

	env := map[string]interface{}{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    *seconds,
		"trace":      *traceFlag,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_user_s": (end.user - start.user).Seconds(),
		"cpu_sys_s":  (end.sys - start.sys).Seconds(),
	}
	envLine, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(stdout, "env %s\n", envLine)
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}

	// Every metric the run measured is printed by name; the result line
	// carries the set the mode promises.
	r.layer["fail_frac"] = r.failFrac()
	fmt.Fprintf(stdout, "note %d of %d ops failed\n", r.failed, r.attempted)
	printMetrics(stdout, "e2e", endToEnd, r.e2e)
	want, values := endToEnd, r.e2e
	if o.trace {
		printMetrics(stdout, "layer", perLayer, r.layer)
		want, values = perLayer, r.layer
	} else {
		// The workload results come from the untraced run too.
		printMetrics(stdout, "layer", workloadResults, r.layer)
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultMetric, len(want)),
	}
	for _, m := range want {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", w.name, m.Name, v)
			return 1
		}
		res.Metrics[m.Name] = resultMetric{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no ops attempted\n", w.name)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// finishTrace adds what only a traced run has: the op-span medians, the
// layer microbenchmarks, and the spans themselves written to disk.
func finishTrace(o options, r *report) error {
	if r.tr == nil {
		return errors.New("traced run recorded no spans")
	}
	r.layer["trace.read_p50"] = ms(r.tr.opP50(spRead))
	r.layer["trace.write_p50"] = ms(r.tr.opP50(spWrite))
	r.layer["trace.lock_p50"] = ms(r.tr.opP50(spLock))
	if err := microbench(r.layer); err != nil {
		return fmt.Errorf("microbenchmarks: %w", err)
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.csv", o.workload, o.seed))
	if err := r.tr.writeFile(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.notef("trace: %d spans written to %s", len(r.tr.spans), path)
	return nil
}

func printMetrics(w io.Writer, group string, specs []metricSpec, values map[string]float64) {
	for _, m := range specs {
		fmt.Fprintf(w, "%s %-30s %.6g %s\n", group, m.Name, values[m.Name], m.Unit)
	}
}

func findWorkload(name string) *benchWorkload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// cpuModel is the host CPU's model name, so that host-time figures are
// never reported without the machine they were measured on.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
