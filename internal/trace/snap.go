package trace

// The profiler stores a loop-context snapshot with every shadow-memory entry
// (one per touched address). To keep those entries small and allocation-free,
// loop IDs are interned to small integers and the live loop stack is stored
// in a fixed-size vector.

// maxSnapDepth is the maximum loop nesting depth the profiler snapshots.
// Deeper nests are truncated at the innermost end; none of the benchmark
// programs in this repository nest loops more than five deep.
const maxSnapDepth = 6

type stackEnt struct {
	id   uint32 // interned loop ID
	act  uint32 // activation number (truncated; compared for equality only)
	iter int64
}

type stackVec struct {
	n int8
	e [maxSnapDepth]stackEnt
}

// interner maps loop IDs to dense small integers and back.
type interner struct {
	toIdx map[string]uint32
	toID  []string
}

func newInterner() *interner {
	return &interner{toIdx: make(map[string]uint32)}
}

func (in *interner) idx(id string) uint32 {
	if i, ok := in.toIdx[id]; ok {
		return i
	}
	i := uint32(len(in.toID))
	in.toIdx[id] = i
	in.toID = append(in.toID, id)
	return i
}

func (in *interner) name(i uint32) string { return in.toID[i] }

// liveLoop is one entry of the profiler's own live-loop stack.
type liveLoop struct {
	id   uint32
	act  uint32
	iter int64
}

// fill copies the live stack into v, keeping the outermost maxSnapDepth
// frames (outer frames matter for carried/cross-loop analysis), and reports
// whether deeper frames were dropped.
func (v *stackVec) fill(live []liveLoop) (truncated bool) {
	n := len(live)
	if n > maxSnapDepth {
		n = maxSnapDepth
	}
	for i := 0; i < n; i++ {
		v.e[i] = stackEnt{id: live[i].id, act: live[i].act, iter: live[i].iter}
	}
	v.n = int8(n)
	return len(live) > maxSnapDepth
}
