// Package cu implements Computational Unit (CU) analysis — the first
// DiscoPoP analysis described in §II of the paper — and the CU graph that
// maps dynamic data dependences onto pairs of CUs.
//
// A CU follows the read-compute-write pattern: program state is read from
// memory, a new state is computed (possibly through local temporaries), and
// the result is written back. Temporaries are folded into the CU that
// consumes them, so a CU's source lines need not be contiguous (Figure 1 of
// the paper: CU_x consists of lines 1, 3, 4, 5 while CU_y consists of the
// interleaved lines 2, 6, 7, 8).
//
// CUs are built per *region*: either a function body or the body of one
// loop. Statements at the top level of the region are the unit of grouping;
// nested loops are treated as atomic units (they are regions of their own,
// represented by their own PET nodes). This matches the paper's use: the CU
// graph of function cilksort() (Figure 3) has one CU per recursive call and
// per merge call, and the CU graph of the kernel_3mm() function has one CU
// per loop nest.
package cu

import (
	"fmt"
	"sort"
	"strings"

	"pardetect/internal/ir"
	"pardetect/internal/trace"
)

// Region is the scope CUs are built for.
type Region struct {
	// Fn is the containing function.
	Fn string
	// LoopID is the loop whose body forms the region, or "" when the
	// region is the whole function body.
	LoopID string
	// Body holds the region's top-level statements.
	Body []ir.Stmt
	// Line is the region header line.
	Line int
}

// Name returns a human-readable region identifier.
func (r Region) Name() string {
	if r.LoopID != "" {
		return r.LoopID
	}
	return r.Fn + "()"
}

// FuncRegion returns the region covering the body of the named function.
func FuncRegion(p *ir.Program, fn string) (Region, error) {
	f := p.Func(fn)
	if f == nil {
		return Region{}, fmt.Errorf("cu: unknown function %q", fn)
	}
	return Region{Fn: fn, Body: f.Body, Line: f.Line}, nil
}

// LoopRegion returns the region covering the body of the loop with the given
// ID.
func LoopRegion(p *ir.Program, loopID string) (Region, error) {
	for _, f := range p.Funcs {
		for _, l := range ir.FuncLoops(f) {
			if l.ID == loopID {
				return Region{Fn: f.Name, LoopID: loopID, Body: l.Body, Line: l.Line}, nil
			}
		}
	}
	return Region{}, fmt.Errorf("cu: unknown loop %q", loopID)
}

// CU is one computational unit.
type CU struct {
	// ID is the CU's index in its graph, in serial execution order.
	ID int
	// Anchor is the line of the anchoring statement (the final write of
	// the read-compute-write chain).
	Anchor int
	// Lines are all source lines belonging to the CU, sorted. For CUs
	// anchored by a nested loop or conditional this includes the nested
	// body lines.
	Lines []int
	// Label is a one-line rendering of the anchor statement.
	Label string
	// HasCall reports whether the CU contains a function call.
	HasCall bool
	// IsLoop reports whether the CU is an entire nested loop.
	IsLoop bool
}

// Graph is the CU graph of one region: vertices are CUs, edges are RAW data
// dependences mapped onto CU pairs (§II: "Data dependences are mapped onto a
// pair of CUs. This mapping creates a CU graph").
type Graph struct {
	Region Region
	CUs    []*CU
	// Succs[i] lists CUs that depend on CU i (consumers of its writes).
	Succs [][]int
	// Preds[i] lists CUs that CU i depends on.
	Preds [][]int

	lineToCU map[int]int
}

// Build constructs the CU graph of a region, using the profile's non-carried
// RAW dependences as edges. Loop-carried dependences are excluded: for a
// loop region they connect different iterations (handled by the enclosing
// pattern's synchronisation), and for a function region they connect
// different invocations.
func Build(p *ir.Program, region Region, prof *trace.Profile) *Graph {
	return BuildGranularity(p, region, prof, false)
}

// BuildGranularity is Build with a switch disabling read-compute-write
// folding, so every top-level statement becomes its own CU. It exists for
// the CU-granularity ablation study (DESIGN.md §4.2); the paper's analysis
// always folds.
func BuildGranularity(p *ir.Program, region Region, prof *trace.Profile, noFolding bool) *Graph {
	units := makeUnits(region.Body)
	var groups []*group
	if noFolding {
		for _, u := range units {
			groups = append(groups, &group{anchor: u, members: []*unit{u}})
		}
	} else {
		groups = groupUnits(units)
	}

	g := &Graph{Region: region, lineToCU: make(map[int]int)}
	for _, grp := range groups {
		c := &CU{
			ID:     len(g.CUs),
			Anchor: grp.anchor.stmt.Pos(),
			Label:  ir.Summary(grp.anchor.stmt),
		}
		for _, u := range grp.members {
			c.Lines = append(c.Lines, u.lines...)
			if u.hasCall {
				c.HasCall = true
			}
		}
		sort.Ints(c.Lines)
		if _, isFor := grp.anchor.stmt.(*ir.For); isFor {
			c.IsLoop = true
		} else if _, isWhile := grp.anchor.stmt.(*ir.While); isWhile {
			c.IsLoop = true
		}
		for _, ln := range c.Lines {
			g.lineToCU[ln] = c.ID
		}
		g.CUs = append(g.CUs, c)
	}
	g.Succs = make([][]int, len(g.CUs))
	g.Preds = make([][]int, len(g.CUs))

	type edge struct{ from, to int }
	seen := map[edge]bool{}
	for _, d := range prof.Deps {
		if d.Kind != trace.RAW || d.Carried {
			continue
		}
		from, okF := g.lineToCU[d.SrcLine]
		to, okT := g.lineToCU[d.DstLine]
		if !okF || !okT || from == to {
			continue
		}
		if from > to {
			// A backward RAW within one region execution is impossible;
			// this arises only from state flowing between two different
			// executions of the region and is not a CU-graph edge.
			continue
		}
		e := edge{from, to}
		if seen[e] {
			continue
		}
		seen[e] = true
		g.Succs[from] = append(g.Succs[from], to)
		g.Preds[to] = append(g.Preds[to], from)
	}
	for i := range g.Succs {
		sort.Ints(g.Succs[i])
		sort.Ints(g.Preds[i])
	}
	return g
}

// unit is one top-level statement of a region with its static access sets.
type unit struct {
	idx      int
	stmt     ir.Stmt
	lines    []int
	defVar   string // non-empty for pure scalar assignments
	reads    map[string]bool
	hasCall  bool
	foldable bool
}

func makeUnits(body []ir.Stmt) []*unit {
	units := make([]*unit, 0, len(body))
	for i, s := range body {
		u := &unit{idx: i, stmt: s, reads: map[string]bool{}}
		ir.WalkStmts([]ir.Stmt{s}, func(n ir.Stmt) {
			u.lines = append(u.lines, n.Pos())
			for _, r := range ir.StmtReads(n) {
				if r.Var != "" {
					u.reads[r.Var] = true
				}
			}
			for _, x := range ir.StmtExprs(n) {
				ir.WalkExpr(x, func(e ir.Expr) {
					if _, ok := e.(*ir.Call); ok {
						u.hasCall = true
					}
				})
			}
		})
		if a, ok := s.(*ir.Assign); ok {
			if v, ok := a.Dst.(ir.Var); ok && !u.hasCall {
				u.defVar = v.Name
			}
		}
		units = append(units, u)
	}
	return units
}

// group is a set of units forming one CU; the anchor is the terminal unit of
// the read-compute-write chain.
type group struct {
	anchor  *unit
	members []*unit
}

// groupUnits folds temporary-producing units into their consumers:
//
//   - A unit that is a pure scalar assignment (no call, scalar destination)
//     of a *fresh temporary* — a variable not read anywhere at or before its
//     definition — consumed by exactly ONE later unit (before redefinition)
//     is a "compute" step: it joins the CU of that consumer.
//   - Every other unit anchors its own CU: array stores, calls, control
//     flow, returns, scalar assignments never consumed in the region, and
//     read-modify-write state variables (a variable read earlier and written
//     again terminates a read-compute-write chain — the x of Figure 1).
//   - A temporary with several consumers also anchors its own CU: it is
//     shared state feeding multiple CUs, the natural fork point of Figure 3
//     (cilksort's split computation CU₀ feeding all four workers).
//
// Folding is transitive: a chain x→a→b of temporaries collapses into the CU
// of the unit that finally writes program state, reproducing Figure 1.
func groupUnits(units []*unit) []*group {
	readSoFar := map[string]bool{}
	freshDef := make([]bool, len(units))
	for i, u := range units {
		for v := range u.reads {
			readSoFar[v] = true
		}
		if u.defVar != "" && !readSoFar[u.defVar] {
			freshDef[i] = true
		}
	}
	consumer := make([]int, len(units))
	for i, u := range units {
		consumer[i] = -1
		if u.defVar == "" || !freshDef[i] {
			continue
		}
		nConsumers := 0
		for j := i + 1; j < len(units); j++ {
			if units[j].reads[u.defVar] {
				if consumer[i] < 0 {
					consumer[i] = j
				}
				nConsumers++
			}
			if units[j].defVar == u.defVar {
				break // redefined: later reads see the new value
			}
		}
		if nConsumers != 1 {
			consumer[i] = -1
		}
		u.foldable = consumer[i] >= 0
	}
	// Resolve each unit to its terminal group representative.
	repr := make([]int, len(units))
	var resolve func(i int) int
	resolve = func(i int) int {
		if repr[i] != 0 {
			return repr[i] - 1
		}
		r := i
		if units[i].foldable {
			r = resolve(consumer[i])
		}
		repr[i] = r + 1
		return r
	}
	byRepr := map[int]*group{}
	var order []int
	for i, u := range units {
		r := resolve(i)
		grp := byRepr[r]
		if grp == nil {
			grp = &group{anchor: units[r]}
			byRepr[r] = grp
			order = append(order, r)
		}
		grp.members = append(grp.members, u)
	}
	sort.Ints(order)
	out := make([]*group, 0, len(order))
	for _, r := range order {
		out = append(out, byRepr[r])
	}
	return out
}

// CUAt reports the CU owning the given line, if any.
func (g *Graph) CUAt(line int) (*CU, bool) {
	i, ok := g.lineToCU[line]
	if !ok {
		return nil, false
	}
	return g.CUs[i], true
}

// HasPath reports whether a directed path exists from CU a to CU b.
func (g *Graph) HasPath(a, b int) bool {
	if a == b {
		return true
	}
	// Graphs of up to 64 CUs (every region of the Table III apps) search
	// in stack buffers, so a query allocates nothing.
	var seenBuf [64]bool
	var workBuf [64]int
	seen := seenBuf[:]
	if len(g.CUs) > len(seenBuf) {
		seen = make([]bool, len(g.CUs))
	}
	work := append(workBuf[:0], a)
	seen[a] = true
	for i := 0; i < len(work); i++ {
		for _, s := range g.Succs[work[i]] {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// Weights returns per-CU dynamic operation counts from the profile's
// per-line costs (call sites absorb non-recursive callee costs). When
// divisor > 1 the weights are divided by it — used for recursive hotspots,
// where costs are normalised per activation.
func (g *Graph) Weights(prof *trace.Profile, divisor int64) []int64 {
	if divisor < 1 {
		divisor = 1
	}
	w := make([]int64, len(g.CUs))
	for i, c := range g.CUs {
		var sum int64
		for _, ln := range c.Lines {
			sum += prof.LineOps[ln]
		}
		w[i] = sum / divisor
	}
	return w
}

// CriticalPath returns the weight of the heaviest dependence-ordered path
// through the CU graph and the CU IDs on it. The graph built by Build is a
// DAG (edges only go forward in serial order), so a single forward sweep
// suffices.
func (g *Graph) CriticalPath(weights []int64) (int64, []int) {
	n := len(g.CUs)
	if n == 0 {
		return 0, nil
	}
	best := make([]int64, n)
	prev := make([]int, n)
	for i := 0; i < n; i++ {
		best[i] = weights[i]
		prev[i] = -1
		for _, p := range g.Preds[i] {
			if cand := best[p] + weights[i]; cand > best[i] {
				best[i] = cand
				prev[i] = p
			}
		}
	}
	argmax := 0
	for i := 1; i < n; i++ {
		if best[i] > best[argmax] {
			argmax = i
		}
	}
	var path []int
	for i := argmax; i >= 0; i = prev[i] {
		path = append(path, i)
	}
	// Reverse into execution order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return best[argmax], path
}

// String renders the graph in the style of Figure 3: one line per CU with
// its dependence edges.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CU graph of %s (%d CUs)\n", g.Region.Name(), len(g.CUs))
	for _, c := range g.CUs {
		fmt.Fprintf(&sb, "  CU%d [line %d] %s", c.ID, c.Anchor, c.Label)
		if len(g.Succs[c.ID]) > 0 {
			fmt.Fprintf(&sb, "  ->")
			for _, s := range g.Succs[c.ID] {
				fmt.Fprintf(&sb, " CU%d", s)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
