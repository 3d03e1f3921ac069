package interp

import (
	"fmt"
	"testing"
)

// seqTracer records every event as a formatted string into a shared journal,
// tagged with the sink's index, so tests can assert both that all 8 event
// kinds reach every sink and that sinks are invoked in Tee order.
type seqTracer struct {
	idx     int
	journal *[]string
}

func (s *seqTracer) TraceBatch(names []string, events []Event) {
	for _, e := range events {
		var ev string
		switch e.Kind {
		case EvLoad:
			ev = fmt.Sprintf("Load(%d,%s,%v,%d)", e.A, names[e.Name], e.Array, e.Line)
		case EvStore:
			ev = fmt.Sprintf("Store(%d,%s,%v,%d)", e.A, names[e.Name], e.Array, e.Line)
		case EvLoopEnter:
			ev = fmt.Sprintf("LoopEnter(%s,%d)", names[e.Name], e.Line)
		case EvLoopIter:
			ev = fmt.Sprintf("LoopIter(%s,%d)", names[e.Name], e.A)
		case EvLoopExit:
			ev = fmt.Sprintf("LoopExit(%s)", names[e.Name])
		case EvCallEnter:
			ev = fmt.Sprintf("CallEnter(%s,%d)", names[e.Name], e.Line)
		case EvCallExit:
			ev = fmt.Sprintf("CallExit(%s)", names[e.Name])
		case EvCount:
			ev = fmt.Sprintf("Count(%d,%d)", e.A, e.Line)
		}
		*s.journal = append(*s.journal, fmt.Sprintf("sink%d:%s", s.idx, ev))
	}
}

// TestTeeAllMethodsReachEverySinkInOrder drives each of the 8 event kinds,
// one batch each, through a three-way Tee and asserts the exact journal:
// for every event, sink 0 fires before sink 1 before sink 2, with identical
// arguments.
func TestTeeAllMethodsReachEverySinkInOrder(t *testing.T) {
	var journal []string
	sinks := make([]Tracer, 3)
	for i := range sinks {
		sinks[i] = &seqTracer{idx: i, journal: &journal}
	}
	tee := Tee(sinks...)

	names := []string{"arr", "x", "f.L1", "g"}
	events := []struct {
		name string
		ev   Event
	}{
		{"Load(7,arr,true,11)", Event{Kind: EvLoad, A: 7, Name: 0, Array: true, Line: 11}},
		{"Store(8,x,false,12)", Event{Kind: EvStore, A: 8, Name: 1, Line: 12}},
		{"LoopEnter(f.L1,3)", Event{Kind: EvLoopEnter, Name: 2, Line: 3}},
		{"LoopIter(f.L1,4)", Event{Kind: EvLoopIter, Name: 2, A: 4}},
		{"LoopExit(f.L1)", Event{Kind: EvLoopExit, Name: 2}},
		{"CallEnter(g,9)", Event{Kind: EvCallEnter, Name: 3, Line: 9}},
		{"CallExit(g)", Event{Kind: EvCallExit, Name: 3}},
		{"Count(42,13)", Event{Kind: EvCount, A: 42, Line: 13}},
	}
	var want []string
	for _, ev := range events {
		tee.TraceBatch(names, []Event{ev.ev})
		for i := range sinks {
			want = append(want, fmt.Sprintf("sink%d:%s", i, ev.name))
		}
	}
	if len(journal) != len(want) {
		t.Fatalf("journal has %d entries, want %d:\n%v", len(journal), len(want), journal)
	}
	for i := range want {
		if journal[i] != want[i] {
			t.Errorf("journal[%d] = %q, want %q", i, journal[i], want[i])
		}
	}
}

// TestTeeEmptyAndSingle checks the degenerate fan-outs used by core: a Tee
// of one sink behaves like the sink, and a Tee of zero sinks is a no-op.
func TestTeeEmptyAndSingle(t *testing.T) {
	empty := Tee()
	empty.TraceBatch([]string{""}, []Event{{Kind: EvLoad, A: 1, Line: 1}, {Kind: EvCount, A: 1, Line: 1}}) // must not panic

	var journal []string
	one := Tee(&seqTracer{idx: 0, journal: &journal})
	one.TraceBatch([]string{"y"}, []Event{{Kind: EvStore, A: 2, Name: 0, Line: 5}})
	if len(journal) != 1 || journal[0] != "sink0:Store(2,y,false,5)" {
		t.Fatalf("single-sink tee journal = %v", journal)
	}
}
