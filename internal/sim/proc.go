package sim

import "fmt"

// Proc is a simulated sequential process (a coroutine). Procs model user
// tasks: code that computes for simulated durations and blocks on events
// such as page faults. A proc runs on its own goroutine, but the engine and
// all procs execute mutually exclusively: the engine is blocked while a proc
// runs and vice versa, so execution order is deterministic.
//
// All Proc methods must be called from the proc's own code (inside the
// function passed to Spawn); Wake-style operations happen through Future and
// the other synchronization types.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	yield  chan struct{}
	dead   bool
}

// Spawn creates a proc and schedules it to start immediately (at the current
// virtual time, after already-queued events for this instant). fn runs to
// completion in simulated time; when it returns the proc is dead.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	e.nprocs++
	go func() {
		<-p.resume
		fn(p)
		p.dead = true
		p.eng.nprocs--
		p.yield <- struct{}{}
	}()
	e.wake(p)
	return p
}

// step runs the proc from the engine context until it parks or finishes.
func (p *Proc) step() {
	if p.dead {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// park returns control to the engine and waits until some event calls step.
func (p *Proc) park() {
	p.yield <- struct{}{}
	<-p.resume
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep advances the proc by d of simulated time (e.g. modelled CPU work).
// A negative d is clamped to zero, and even a zero-length sleep parks the
// proc behind events already queued for this instant — Sleep(0) is the
// fairness point that lets other procs and protocol events interleave.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleProcAt(p.eng.now+d, p)
	p.park()
}

// Yield gives other events scheduled for the current instant a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// WaitGroup-like completion tracking -----------------------------------------

// Join blocks the calling proc until all the given futures are set.
func Join(p *Proc, fs ...*Future) {
	for _, f := range fs {
		f.Wait(p)
	}
}
