package sim

import (
	"reflect"
	"testing"
	"time"
)

// fixedChooser answers from a script, then 0.
type fixedChooser struct {
	script []int
	calls  []int // n offered at each point
}

func (f *fixedChooser) Choose(kind ChoiceKind, n int) int {
	i := len(f.calls)
	f.calls = append(f.calls, n)
	if i < len(f.script) {
		return f.script[i]
	}
	return 0
}

// schedule four same-timestamp events plus a later one; return run order.
func runTied(t *testing.T, ch Chooser) []int {
	t.Helper()
	e := NewEngine()
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Schedule(0, func() { order = append(order, i) })
	}
	e.Schedule(time.Microsecond, func() { order = append(order, 99) })
	e.SetChooser(ch)
	if !e.RunMax(100) {
		t.Fatal("queue did not drain")
	}
	return order
}

func TestChooseNilAndDegenerate(t *testing.T) {
	e := NewEngine()
	if e.Exploring() {
		t.Fatal("fresh engine claims to be exploring")
	}
	if k := e.Choose(ChoiceLatency, 5); k != 0 {
		t.Fatalf("nil chooser Choose = %d, want 0", k)
	}
	f := &fixedChooser{}
	e.SetChooser(f)
	if !e.Exploring() {
		t.Fatal("Exploring false with chooser installed")
	}
	if k := e.Choose(ChoiceFault, 1); k != 0 || len(f.calls) != 0 {
		t.Fatal("degenerate point (n=1) must not consult the chooser")
	}
}

func TestChooseOutOfRangePanics(t *testing.T) {
	e := NewEngine()
	e.SetChooser(&fixedChooser{script: []int{7}})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range chooser answer did not panic")
		}
	}()
	e.Choose(ChoiceEvent, 3)
}

func TestPopChooseZeroIsDefaultSchedule(t *testing.T) {
	def := runTied(t, nil)
	zero := runTied(t, &fixedChooser{})
	if !reflect.DeepEqual(def, zero) {
		t.Fatalf("all-zeros chooser diverged from default: %v vs %v", def, zero)
	}
	if want := []int{0, 1, 2, 3, 99}; !reflect.DeepEqual(def, want) {
		t.Fatalf("default order = %v, want %v", def, want)
	}
}

func TestPopChooseReordersTies(t *testing.T) {
	// Pick the third candidate first; the rest keep FIFO order, and the
	// later-timestamp event is never part of the tie.
	f := &fixedChooser{script: []int{2}}
	got := runTied(t, f)
	if want := []int{2, 0, 1, 3, 99}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if f.calls[0] != 4 {
		t.Fatalf("first point offered %d alternatives, want 4", f.calls[0])
	}
}

func TestRunMaxBound(t *testing.T) {
	e := NewEngine()
	var n int
	// A self-rescheduling event never drains.
	var tick func()
	tick = func() { n++; e.Schedule(time.Nanosecond, tick) }
	e.Schedule(0, tick)
	if e.RunMax(50) {
		t.Fatal("RunMax claimed drain on an infinite schedule")
	}
	if n != 50 {
		t.Fatalf("executed %d events under a bound of 50", n)
	}
}

// TestLeavingBatchKeepsOrder halts mid-cohort with same-instant events
// parked in the dispatch batch, then resumes through each path that
// flushes the batch back into the heap (SetChooser, RunMax): the rest of
// the schedule must run in the same (time, seq) order as an uninterrupted
// run.
func TestLeavingBatchKeepsOrder(t *testing.T) {
	run := func(resume func(e *Engine)) []int {
		e := NewEngine()
		var order []int
		e.Schedule(time.Microsecond, func() {
			order = append(order, 0)
			for i := 1; i <= 4; i++ {
				i := i
				// Born during dispatch at the current instant: these
				// ride the batch, not the heap.
				e.Schedule(0, func() {
					order = append(order, i)
					if i == 2 {
						e.Halt()
					}
				})
			}
		})
		e.Schedule(2*time.Microsecond, func() { order = append(order, 5) })
		e.Run()
		if len(order) != 3 {
			t.Fatalf("ran %v before Halt, want [0 1 2]", order)
		}
		resume(e)
		return order
	}
	want := []int{0, 1, 2, 3, 4, 5}
	for name, resume := range map[string]func(e *Engine){
		"run":        func(e *Engine) { e.Run() },
		"setchooser": func(e *Engine) { e.SetChooser(&fixedChooser{}); e.Run() },
		"runmax": func(e *Engine) {
			if !e.RunMax(100) {
				t.Fatal("RunMax did not drain")
			}
		},
	} {
		if got := run(resume); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: order %v, want %v", name, got, want)
		}
	}
}
