package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanKind names what a span covers: a host-time phase of the benchmark,
// or one public call into the system under test.
type spanKind uint8

const (
	spSetup spanKind = iota
	spGen
	spPrepare
	spRun
	spDrain
	spCheck
	spRead
	spWrite
	spLock
	spUnlock
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"setup", "gen", "prepare", "run", "drain", "check",
	"read", "write", "lock", "unlock",
}

// spanClock says which clock a span's times are on.
type spanClock uint8

const (
	clkHost    spanClock = iota // benchmark host time since the run started
	clkVirtual                  // simulated time of the machine the op ran on
	clkWall                     // wall time since the run started (real mesh)
)

var clockNames = [...]string{"host", "virtual", "wall"}

// span is one recorded interval. Parent is the phase span that caused it
// (-1 for a phase itself); ops carry their node.
type span struct {
	ID, Parent int32
	Kind       spanKind
	Clock      spanClock
	Node       int32
	Start, End time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so the untraced path pays one nil check per
// call. It is safe for concurrent use (mesh-kv's clients share one).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   int32 // the open phase: parent of the op spans recorded now

	// replaying routes op spans to a scratch buffer that is cleared at
	// every replay call: they are recorded, so a replayed iteration pays
	// the full tracing cost, but not kept. Only simulated iterations at
	// one seed are replays, whose op spans repeat the first traced
	// iteration's exactly; keeping them all would hold millions of spans.
	replaying bool
	scratch   []span
}

// replay starts a replayed iteration (see replaying).
func (t *tracer) replay() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.replaying = true
	t.scratch = t.scratch[:0]
	t.mu.Unlock()
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// phase runs fn inside a host-time phase span and returns fn's duration,
// which callers use whether or not tracing is on.
func (t *tracer) phase(kind spanKind, fn func()) time.Duration {
	start := time.Now()
	t.begin(kind)
	fn()
	t.end()
	return time.Since(start)
}

// begin starts a host-time phase span; ops recorded until end are its
// children. Phases do not nest.
func (t *tracer) begin(kind spanKind) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, span{ID: t.cur, Parent: -1, Kind: kind, Clock: clkHost, Start: now, End: now})
	t.mu.Unlock()
}

// end ends the open phase.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[t.cur].End = now
	t.cur = -1
	t.mu.Unlock()
}

// op records one call into the system, on the given clock, as a child of
// the open phase.
func (t *tracer) op(kind spanKind, clock spanClock, node int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := span{ID: int32(len(t.spans)), Parent: t.cur, Kind: kind,
		Clock: clock, Node: int32(node), Start: start, End: end}
	if t.replaying {
		t.scratch = append(t.scratch, s)
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// opP50 is the median duration of the recorded op spans of one kind.
func (t *tracer) opP50(kind spanKind) time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Kind == kind {
			ds = append(ds, s.End-s.Start)
		}
	}
	return percentile(ds, 50)
}

// writeFile dumps every span as one CSV line (id, parent, kind, clock,
// node, start_ns, end_ns) to path, creating its directory.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,kind,clock,node,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d,%d\n", s.ID, s.Parent, spanNames[s.Kind],
			clockNames[s.Clock], s.Node, int64(s.Start), int64(s.End))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
