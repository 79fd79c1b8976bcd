package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", e.Now())
	}
}

func TestScheduleSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced to %v for clamped event", e.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.ScheduleAt(0, func() {}) // in the past: must not rewind the clock
	})
	e.Run()
	if e.Now() != time.Second {
		t.Fatalf("clock rewound: now=%v", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Microsecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Microsecond {
		t.Fatalf("now = %v, want 99µs", e.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var ran []int
	e.Schedule(time.Millisecond, func() { ran = append(ran, 1) })
	e.Schedule(time.Hour, func() { ran = append(ran, 2) })
	end := e.RunUntil(time.Second)
	if end != time.Second {
		t.Fatalf("RunUntil returned %v, want 1s", end)
	}
	if len(ran) != 1 {
		t.Fatalf("wrong events ran: %v", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(ran) != 2 {
		t.Fatalf("deferred event never ran: %v", ran)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("executed %d events after Halt, want 3", n)
	}
	// Run can be resumed.
	e.Run()
	if n != 10 {
		t.Fatalf("resume after halt executed %d, want 10", n)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(0, func() {})
	}
	e.Run()
	if e.Executed != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine()
		rng := NewRNG(42)
		var times []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			times = append(times, e.Now())
			if depth > 4 {
				return
			}
			k := rng.Intn(3) + 1
			for i := 0; i < k; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Microsecond
				e.Schedule(d, func() { spawn(depth + 1) })
			}
		}
		e.Schedule(0, func() { spawn(0) })
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBatchedSameInstantFIFO is the property test for batched dispatch:
// events that fan out same-instant work mid-dispatch, across several
// cohorts, must still execute in global (time, seq) FIFO order — the batch
// bypasses the heap, never the ordering contract.
func TestBatchedSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	id := 0
	add := func(delay Time, fanout int) {
		myID := id
		id++
		e.Schedule(delay, func() {
			order = append(order, myID)
			for f := 0; f < fanout; f++ {
				// Same-instant children: these must run after everything
				// already scheduled for this instant.
				child := id
				id++
				e.Schedule(0, func() { order = append(order, child) })
			}
		})
	}
	// Three cohorts at 0µs, 1µs, 2µs; each root fans out two same-instant
	// children.
	for c := 0; c < 3; c++ {
		add(Time(c)*time.Microsecond, 2)
		add(Time(c)*time.Microsecond, 0)
	}
	e.Run()
	// Roots get ids 0..5 at schedule time (two per cohort); children get
	// ids at execution time (6,7 then 8,9 then 10,11). Per cohort the two
	// roots run in schedule order, then the first root's same-instant
	// children run after both — FIFO across the batch/heap boundary.
	want := []int{0, 1, 6, 7, 2, 3, 8, 9, 4, 5, 10, 11}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestQueueShrinksAfterBurst pins the fix for the queue's backing array
// never shrinking: after a 1M-event burst fully drains, Run releases the
// backing memory, while steady-state queues below shrinkCap keep their
// free-list array.
func TestQueueShrinksAfterBurst(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const burst = 1 << 20
	for i := 0; i < burst; i++ {
		e.Schedule(Time(i%1000)*time.Microsecond, fn)
	}
	if got := cap(e.q.ev); got < burst {
		t.Fatalf("burst capacity %d, want >= %d", got, burst)
	}
	e.Run()
	if got := cap(e.q.ev); got > shrinkCap {
		t.Fatalf("post-run capacity %d, want <= shrinkCap (%d)", got, shrinkCap)
	}
	// Steady state below the threshold: capacity must be retained (the
	// free-list trick), not churned.
	for i := 0; i < 100; i++ {
		e.Schedule(time.Microsecond, fn)
	}
	e.Run()
	c := cap(e.q.ev)
	for i := 0; i < 100; i++ {
		e.Schedule(time.Microsecond, fn)
	}
	e.Run()
	if cap(e.q.ev) != c {
		t.Fatalf("steady-state capacity churned: %d -> %d", c, cap(e.q.ev))
	}
}

// TestScheduleRunZeroAllocs guards the hot path at 0 allocs/op with no
// chooser installed (the CI benchmark-regression leg runs this).
func TestScheduleRunZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	i := 0
	allocs := testing.AllocsPerRun(20000, func() {
		e.Schedule(Time(i%64)*time.Microsecond, fn)
		i++
		if e.Pending() >= 1024 {
			e.RunUntil(e.Now() + time.Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/run path allocates %.1f allocs/op, want 0", allocs)
	}
}
