// Package pet builds Program Execution Trees (PETs) as described in §II and
// Figure 2 of the paper: a tree of control regions (functions and loops)
// reconstructed from the dynamic event stream.
//
//   - When a new loop starts or a function is called, a child node is
//     created under the current region (children are merged by identity, so
//     repeated executions of the same region accumulate into one node).
//   - Iterations of a loop are merged into a single node; the total
//     iteration count is recorded.
//   - Recursive calls are merged into the existing ancestor node, which is
//     marked recursive.
//   - Every node records the number of dynamically executed IR operations
//     of its region; regions with a high share of the total are hotspots.
package pet

import (
	"fmt"
	"sort"
	"strings"

	"pardetect/internal/interp"
)

// Kind classifies PET nodes.
type Kind int

// Node kinds.
const (
	Root Kind = iota
	Func
	Loop
)

// String returns a short label for the kind.
func (k Kind) String() string {
	switch k {
	case Root:
		return "root"
	case Func:
		return "func"
	case Loop:
		return "loop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one control region of the PET.
type Node struct {
	Kind Kind
	// Name is the function name (Func) or loop ID (Loop).
	Name string
	// Line is the source line of the region header (first observed).
	Line int
	// Recursive marks function nodes that were re-entered while live.
	Recursive bool
	// Activations counts calls (Func) or loop entries (Loop).
	Activations int64
	// Iterations is the total iteration count (Loop only).
	Iterations int64
	// Self is the number of IR operations executed directly in this
	// region (excluding child regions).
	Self int64
	// Total is Self plus the Total of all children, with recursive
	// re-entries already folded in.
	Total int64
	// Children are the sub-regions in first-observation order.
	Children []*Node

	parent *Node
}

// Parent returns the enclosing region, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Share returns the node's fraction of all executed operations.
func (n *Node) Share(treeTotal int64) float64 {
	if treeTotal == 0 {
		return 0
	}
	return float64(n.Total) / float64(treeTotal)
}

// Child returns the child with the given kind and name, or nil.
func (n *Node) Child(kind Kind, name string) *Node {
	for _, c := range n.Children {
		if c.Kind == kind && c.Name == name {
			return c
		}
	}
	return nil
}

// Tree is a finished PET.
type Tree struct {
	Root *Node
	// Total is the number of IR operations executed by the whole program.
	Total int64
}

// Hotspot is a node together with its share of total executed operations.
type Hotspot struct {
	Node  *Node
	Share float64
}

// Hotspots returns all function and loop nodes whose inclusive share is at
// least minShare, sorted by descending share (ties broken by name for
// determinism). This is the "high percentage of instruction counts"
// criterion of §II.
func (t *Tree) Hotspots(minShare float64) []Hotspot {
	var out []Hotspot
	t.Walk(func(n *Node) {
		if n.Kind == Root {
			return
		}
		if s := n.Share(t.Total); s >= minShare {
			out = append(out, Hotspot{Node: n, Share: s})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Node.Name < out[j].Node.Name
	})
	return out
}

// Walk visits every node of the tree in pre-order.
func (t *Tree) Walk(fn func(*Node)) { walk(t.Root, fn) }

func walk(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// FindFunc returns all function nodes with the given name (a function called
// from several distinct regions has several nodes).
func (t *Tree) FindFunc(name string) []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.Kind == Func && n.Name == name {
			out = append(out, n)
		}
	})
	return out
}

// FindLoop returns the loop node with the given ID, or nil. Loop IDs are
// program-unique but a loop in a function called from several regions has
// several nodes; the one with the largest Total is returned.
func (t *Tree) FindLoop(id string) *Node {
	var best *Node
	t.Walk(func(n *Node) {
		if n.Kind == Loop && n.Name == id {
			if best == nil || n.Total > best.Total {
				best = n
			}
		}
	})
	return best
}

// String renders the tree in the indented format used by Figure 2: one line
// per region with kind, name, activation/iteration counts, instruction
// counts and share.
func (t *Tree) String() string {
	var sb strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		ind := strings.Repeat("  ", depth)
		switch n.Kind {
		case Root:
			fmt.Fprintf(&sb, "%sprogram (total %d ops)\n", ind, t.Total)
		case Func:
			tag := ""
			if n.Recursive {
				tag = " [recursive]"
			}
			fmt.Fprintf(&sb, "%sfunc %s%s: calls=%d ops=%d (%.2f%%)\n",
				ind, n.Name, tag, n.Activations, n.Total, 100*n.Share(t.Total))
		case Loop:
			fmt.Fprintf(&sb, "%sloop %s: entries=%d iters=%d ops=%d (%.2f%%)\n",
				ind, n.Name, n.Activations, n.Iterations, n.Total, 100*n.Share(t.Total))
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return sb.String()
}

// Builder constructs a PET from the event stream; attach it as (part of) an
// interp.Machine tracer, run, then call Finish.
type Builder struct {
	root  *Node
	stack []*Node
}

var _ interp.Tracer = (*Builder)(nil)

// NewBuilder returns an empty PET builder.
func NewBuilder() *Builder {
	r := &Node{Kind: Root, Name: "program"}
	return &Builder{root: r, stack: []*Node{r}}
}

func (b *Builder) top() *Node { return b.stack[len(b.stack)-1] }

func (b *Builder) enterChild(kind Kind, name string, line int) *Node {
	cur := b.top()
	c := cur.Child(kind, name)
	if c == nil {
		c = &Node{Kind: kind, Name: name, Line: line, parent: cur}
		cur.Children = append(cur.Children, c)
	}
	c.Activations++
	b.stack = append(b.stack, c)
	return c
}

// callEnter enters fn's region. A call to a function already live on the
// region stack merges into that ancestor node (recursion folding).
func (b *Builder) callEnter(fn string, line int) {
	for i := len(b.stack) - 1; i >= 0; i-- {
		n := b.stack[i]
		if n.Kind == Func && n.Name == fn {
			n.Recursive = true
			n.Activations++
			b.stack = append(b.stack, n)
			return
		}
	}
	b.enterChild(Func, fn, line)
}

func (b *Builder) pop() {
	if len(b.stack) > 1 {
		b.stack = b.stack[:len(b.stack)-1]
	}
}

// TraceBatch implements interp.Tracer. The tree's shape comes from the
// control events only; loads and stores — the overwhelming bulk of a batch —
// are skipped.
func (b *Builder) TraceBatch(names []string, events []interp.Event) {
	for i := range events {
		if k := events[i].Kind; k != interp.EvLoad && k != interp.EvStore {
			b.Event(names, &events[i])
		}
	}
}

// Event applies one event to the tree; names is the batch's name table. It
// is the per-event handler of TraceBatch, exported so a consumer already
// walking a batch (trace.Collector.FeedPET) can build the PET in the same
// pass. Loads and stores do not shape the tree and are ignored. Operation
// counts are attributed to the innermost live region, and an iteration
// counts only when its loop is that region.
func (b *Builder) Event(names []string, e *interp.Event) {
	switch e.Kind {
	case interp.EvCount:
		b.top().Self += int64(e.A)
	case interp.EvLoopEnter:
		b.enterChild(Loop, names[e.Name], int(e.Line))
	case interp.EvLoopIter:
		if t := b.top(); t.Kind == Loop && t.Name == names[e.Name] {
			t.Iterations++
		}
	case interp.EvLoopExit:
		b.pop()
	case interp.EvCallEnter:
		b.callEnter(names[e.Name], int(e.Line))
	case interp.EvCallExit:
		b.pop()
	}
}

// Finish computes inclusive totals and returns the tree. The builder must
// not be reused.
func (b *Builder) Finish() *Tree {
	var sum func(n *Node) int64
	sum = func(n *Node) int64 {
		n.Total = n.Self
		for _, c := range n.Children {
			n.Total += sum(c)
		}
		return n.Total
	}
	// A recursive node appears once in the tree (its re-entries merged),
	// so the child sum above counts it exactly once.
	total := sum(b.root)
	return &Tree{Root: b.root, Total: total}
}
