package sim

import "fmt"

// This file is the engine's schedule-exploration hook. A Chooser, when
// installed, resolves *choice points*: places where the simulation's outcome
// is determined by an order the protocol must not depend on — which of
// several same-timestamp events runs first, how much extra latency a message
// delivery sees, whether a faulty link drops a message. Production runs
// never install one (the field is nil and every path below short-circuits),
// so the seed-1 determinism contract and the zero-allocation hot paths are
// untouched; the explore package installs one to enumerate or sample
// schedules.

// ChoiceKind labels a choice point, for traces and reproducer files.
type ChoiceKind uint8

const (
	// ChoiceEvent picks which of n same-timestamp events runs next.
	// Alternative 0 is always the default (FIFO by schedule order).
	ChoiceEvent ChoiceKind = iota
	// ChoiceLatency picks an extra delivery-latency step for a message.
	// Alternative 0 is always "no extra latency".
	ChoiceLatency
	// ChoiceFault picks the fate of a message on a fault-injected link.
	// Alternative 0 is always "deliver normally".
	ChoiceFault
	// ChoiceCrash picks the fate of a planned node crash when it comes due.
	// Alternative 0 is always "the node survives"; 1 is crash (with the
	// plan's restart, if any); 2, where offered, is crash with the restart
	// suppressed (a permanent fate for a plan that scheduled a comeback).
	ChoiceCrash
)

// String implements fmt.Stringer.
func (k ChoiceKind) String() string {
	switch k {
	case ChoiceEvent:
		return "event"
	case ChoiceLatency:
		return "latency"
	case ChoiceFault:
		return "fault"
	case ChoiceCrash:
		return "crash"
	}
	return fmt.Sprintf("ChoiceKind(%d)", uint8(k))
}

// Chooser resolves schedule choice points. Choose must return an index in
// [0, n) and must be a deterministic function of the sequence of calls it
// has seen — the engine replays a schedule exactly by replaying the choice
// sequence. Returning 0 everywhere reproduces the default schedule
// bit-for-bit.
type Chooser interface {
	Choose(kind ChoiceKind, n int) int
}

// maxEventChoices caps how many same-timestamp events one ChoiceEvent point
// offers. Ties wider than this are still executed correctly — the chooser
// just cannot reorder beyond the first maxEventChoices candidates.
const maxEventChoices = 8

// SetChooser installs (or, with nil, removes) the schedule-exploration
// hook. Must not be called while the engine is running events.
//
// Installing a chooser returns any live dispatch batch to the heap:
// ChoiceEvent points are defined against the heap's same-timestamp
// candidate sets, which batching deliberately avoids materializing.
// Exploration always runs on the per-event path.
func (e *Engine) SetChooser(c Chooser) {
	if c != nil {
		e.flushBatch()
	}
	e.chooser = c
}

// Exploring reports whether a Chooser is installed. Cost-model code uses it
// to gate choice points off the hot path with a single nil check.
func (e *Engine) Exploring() bool { return e.chooser != nil }

// Choose resolves one choice point against the installed chooser. With no
// chooser (every production run) or a degenerate point (n <= 1) it returns
// 0, the default alternative, without any side effect.
func (e *Engine) Choose(kind ChoiceKind, n int) int {
	if e.chooser == nil || n <= 1 {
		return 0
	}
	k := e.chooser.Choose(kind, n)
	if k < 0 || k >= n {
		panic(fmt.Sprintf("sim: chooser returned %d for a %v point with %d alternatives", k, kind, n))
	}
	return k
}

// popChoose pops the next event under chooser control: when several events
// share the earliest timestamp, the chooser picks which runs first.
// Candidates are presented in (seq) FIFO order, so alternative 0 is exactly
// the default schedule and a chooser that always answers 0 is a no-op.
func (e *Engine) popChoose() event {
	first := e.q.pop()
	if e.q.len() == 0 || e.q.ev[0].at != first.at {
		return first
	}
	e.scratch = append(e.scratch[:0], first)
	for e.q.len() > 0 && e.q.ev[0].at == first.at && len(e.scratch) < maxEventChoices {
		e.scratch = append(e.scratch, e.q.pop())
	}
	k := e.Choose(ChoiceEvent, len(e.scratch))
	chosen := e.scratch[k]
	for i := range e.scratch {
		if i != k {
			// Pushing back preserves seq, so the relative order of the
			// remaining candidates is unchanged and later choice points see
			// a stable candidate list.
			e.q.push(e.scratch[i])
		}
		e.scratch[i] = event{} // release fn/proc/run
	}
	return chosen
}

// RunMax executes events until the queue drains, Halt is called, or max
// events have run — the explorer's non-termination bound. It reports
// whether the queue drained (false means the bound was hit or the engine
// was halted with events still pending).
func (e *Engine) RunMax(max uint64) bool {
	e.halted = false
	e.flushBatch() // per-event pops need everything on the heap
	for e.q.len() > 0 && !e.halted {
		if max == 0 {
			return false
		}
		max--
		var ev event
		if e.chooser != nil {
			ev = e.popChoose()
		} else {
			ev = e.q.pop()
		}
		e.now = ev.at
		e.Executed++
		if ev.proc != nil {
			ev.proc.step()
		} else if ev.run != nil {
			ev.run.Run()
		} else if ev.fn != nil {
			ev.fn()
		}
	}
	return e.q.len() == 0
}
