package rt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"asvm/internal/sim"
)

// A timer scheduled through the engine must fire on the wall clock, not
// instantly and not never.
func TestLoopFiresTimersOnWallClock(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	fired := make(chan time.Duration, 1)
	wallStart := time.Now()
	l.Inject(func() {
		eng.Schedule(30*time.Millisecond, func() {
			fired <- time.Since(wallStart)
		})
	})
	select {
	case took := <-fired:
		if took < 25*time.Millisecond {
			t.Fatalf("timer fired after %v wall time, want >= ~30ms", took)
		}
		if took > 2*time.Second {
			t.Fatalf("timer took %v, far beyond its 30ms deadline", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// Procs — the coroutine layer every workload is written in — must run to
// completion under the wall-clock loop, including virtual sleeps.
func TestLoopRunsProcs(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	done := make(chan sim.Time, 1)
	l.Inject(func() {
		eng.Spawn("worker", func(p *sim.Proc) {
			p.Sleep(5 * time.Millisecond)
			p.Sleep(5 * time.Millisecond)
			done <- p.Now()
		})
	})
	select {
	case now := <-done:
		if now < 10*time.Millisecond {
			t.Fatalf("proc finished at virtual t=%v, want >= 10ms", now)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proc never finished")
	}
}

// Injections from many goroutines must all execute, and Call must observe
// engine state coherently.
func TestLoopInjectConcurrent(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	const n = 200
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		go l.Inject(func() { ran.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d injections ran", ran.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}

	var pending int
	if !l.Call(func() { pending = eng.Pending() }) {
		t.Fatal("Call failed on a live loop")
	}
	if pending != 0 {
		t.Fatalf("engine has %d pending events after quiesce", pending)
	}
}

// Stop must terminate the loop goroutine and make later Calls fail
// cleanly instead of hanging.
func TestLoopStop(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	l.Stop()
	if l.Call(func() {}) {
		t.Fatal("Call succeeded after Stop")
	}
}

// An injection's same-instant consequences run before the next injection.
// A completes the future a parked proc waits on; B, injected right after
// A, must find the proc already resumed. This is the real-mesh fault
// path: a grant that wakes the faulting thread must let it touch the page
// before a competing request delivered in the same batch takes it away.
func TestLoopInjectionRunsItsConsequencesFirst(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	fut := sim.NewFuture(eng)
	var resumed bool
	parked := make(chan struct{})
	l.Inject(func() {
		eng.Spawn("waiter", func(p *sim.Proc) {
			close(parked)
			fut.Wait(p)
			resumed = true
		})
	})
	<-parked

	// Hold the loop inside an injection so A and B queue up behind it
	// and are taken in one batch.
	entered := make(chan struct{})
	release := make(chan struct{})
	l.Inject(func() {
		close(entered)
		<-release
	})
	<-entered
	sawResumed := make(chan bool, 1)
	l.Inject(func() { fut.Set(nil) })          // A
	l.Inject(func() { sawResumed <- resumed }) // B
	close(release)

	select {
	case ok := <-sawResumed:
		if !ok {
			t.Fatal("injection B ran before the proc woken by injection A")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injection B never ran")
	}
}

// An injection runs on the present virtual clock: after the loop has sat
// idle, the engine's "now" seen by injected work is at least the wall
// time elapsed before the injection, so the relative timers it arms are
// measured from the present and not from the previous wake.
func TestLoopInjectionSeesFreshClock(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	l.Call(func() {})
	time.Sleep(60 * time.Millisecond)
	e := l.Elapsed()
	now := make(chan sim.Time, 1)
	l.Inject(func() { now <- eng.Now() })
	select {
	case got := <-now:
		if got < e {
			t.Fatalf("injected work saw virtual now %v, want >= %v (the wall time before injecting)", got, e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injection never ran")
	}
}
