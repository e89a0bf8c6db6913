// Package cfg derives control-flow graphs from bytecode and identifies
// natural loops — the prospective speculative thread loops of Figure 1 step
// 1 — together with the per-loop local-variable classification that the
// microJIT's speculative optimizations (§4.2) rely on:
//
//   - carried locals: written in the loop and live into the next iteration
//     (these must be communicated through the runtime stack unless an
//     optimization below removes the communication);
//   - invariant locals: read but never written in the loop (register
//     allocated with reload-on-restart, §4.2.1);
//   - inductors: incremented by a constant exactly once per iteration
//     (computed locally per CPU, §4.2.2);
//   - resetable inductors: inductors with additional, conditionally executed
//     stores (§4.2.3);
//   - reductions: locals whose only use is an associative accumulation
//     (computed per CPU and merged at loop exit, §4.2.5).
//
// Natural loops follow the textbook definition [Muchnick]: a back edge
// t→h where h dominates t defines the loop of all blocks that reach t
// without passing through h.
package cfg

import (
	"sort"

	"jrpm/internal/bytecode"
)

// Block is a basic block of bytecode instructions [Start, End).
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int
	Preds []int
}

// Loop is one natural loop.
type Loop struct {
	Index    int // per-method loop index
	Header   int // block id
	Blocks   map[int]bool
	BlockIDs []int // the members of Blocks, ascending (iteration order)
	Ends     []int // back-edge source block ids
	Exits    []int // target block ids outside the loop
	Parent   int   // enclosing loop index, or -1
	Depth    int   // nesting depth; outermost = 1
	Children []int

	// Local-variable classification (slot ids).
	Written   map[int]bool
	Read      map[int]bool
	Carried   []int
	Invariant []int
	LiveOut   []int         // locals live after the loop exits
	Inductors map[int]int64 // slot → per-iteration step
	Resetable map[int]int64 // slot → step (extra conditional stores)
	// ResetAfterInc maps the pc of each such conditional store to whether
	// the slot's increment has already run in that iteration when it does.
	ResetAfterInc map[int]bool
	Reductions    map[int]bytecode.Op // slot → accumulation op

	// Behaviour flags (transitive through calls).
	HasIO      bool // contains a system call; cannot be speculated
	HasAlloc   bool
	HasMonitor bool
	HasCall    bool
	HasInner   bool // contains a nested loop
	HasEscape  bool // contains return/throw: control can leave non-locally
	// CondInner reports a nested loop whose header is conditionally executed
	// (the §4.2.6 multilevel decomposition candidate shape).
	CondInner bool
}

// Graph is the CFG and loop forest of one method.
type Graph struct {
	Method  *bytecode.Method
	Blocks  []*Block
	blockAt []int // pc → block id
	Idom    []int // immediate dominator per block; entry = -1
	Loops   []*Loop

	liveIn  []map[int]bool // per block
	liveOut []map[int]bool
}

// BlockAt returns the id of the block containing pc.
func (g *Graph) BlockAt(pc int) int { return g.blockAt[pc] }

// Build constructs the CFG for m, including exception-handler edges, and
// runs dominator, loop, liveness and local-classification analyses.
func Build(p *bytecode.Program, m *bytecode.Method) *Graph {
	g := &Graph{Method: m}
	g.buildBlocks(m)
	g.computeDominators()
	g.findLoops()
	g.computeLiveness(p)
	g.classifyLocals(p)
	return g
}

// buildBlocks splits the code at leaders and wires edges.
func (g *Graph) buildBlocks(m *bytecode.Method) {
	n := len(m.Code)
	leader := make([]bool, n+1)
	leader[0] = true
	for pc, in := range m.Code {
		if in.IsBranch() {
			leader[in.A] = true
			leader[pc+1] = true
		} else if in.Terminates() || in.Op == bytecode.ATHROW {
			leader[pc+1] = true
		}
	}
	for _, h := range m.Handlers {
		leader[h.Start] = true
		leader[h.Target] = true
		if h.End <= n {
			leader[h.End] = true
		}
	}
	g.blockAt = make([]int, n)
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			b := &Block{ID: len(g.Blocks), Start: start, End: pc}
			g.Blocks = append(g.Blocks, b)
			for i := start; i < pc; i++ {
				g.blockAt[i] = b.ID
			}
			start = pc
		}
	}
	addEdge := func(from, to int) {
		for _, s := range g.Blocks[from].Succs {
			if s == to {
				return
			}
		}
		g.Blocks[from].Succs = append(g.Blocks[from].Succs, to)
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
	}
	for _, b := range g.Blocks {
		last := m.Code[b.End-1]
		if last.IsBranch() {
			addEdge(b.ID, g.blockAt[last.A])
		}
		if !last.Terminates() && b.End < n {
			addEdge(b.ID, g.blockAt[b.End])
		}
	}
	// Exception edges: any block overlapping a protected range may transfer
	// to the handler.
	for _, h := range m.Handlers {
		for _, b := range g.Blocks {
			if b.Start < h.End && b.End > h.Start {
				addEdge(b.ID, g.blockAt[h.Target])
			}
		}
	}
}

// computeDominators runs the iterative dominator algorithm.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	g.Idom = make([]int, n)
	for i := range g.Idom {
		g.Idom[i] = -2 // unreached
	}
	g.Idom[0] = -1
	// Reverse postorder.
	order := g.reversePostorder()
	pos := make([]int, n)
	for i, b := range order {
		pos[b] = i
	}
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = g.Idom[a]
			}
			for pos[b] > pos[a] {
				b = g.Idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == 0 {
				continue
			}
			newIdom := -2
			for _, p := range g.Blocks[b].Preds {
				if g.Idom[p] == -2 {
					continue // unreached so far
				}
				if newIdom == -2 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -2 && g.Idom[b] != newIdom {
				g.Idom[b] = newIdom
				changed = true
			}
		}
	}
}

func (g *Graph) reversePostorder() []int {
	seen := make([]bool, len(g.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominates reports whether block a dominates block b.
func (g *Graph) Dominates(a, b int) bool {
	for b != -1 && b != -2 {
		if a == b {
			return true
		}
		b = g.Idom[b]
	}
	return false
}

// findLoops discovers natural loops from back edges, merging loops that
// share a header, then computes nesting.
func (g *Graph) findLoops() {
	byHeader := make(map[int]*Loop)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if g.Idom[b.ID] != -2 && g.Dominates(s, b.ID) { // back edge b→s
				l, ok := byHeader[s]
				if !ok {
					l = &Loop{Header: s, Blocks: map[int]bool{s: true}, Parent: -1}
					byHeader[s] = l
				}
				l.Ends = append(l.Ends, b.ID)
				// Natural loop: all blocks reaching b without passing s.
				var stack []int
				if !l.Blocks[b.ID] {
					l.Blocks[b.ID] = true
					stack = append(stack, b.ID)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range g.Blocks[x].Preds {
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Deterministic order: by header pc.
	var headers []int
	for h := range byHeader {
		headers = append(headers, h)
	}
	sort.Slice(headers, func(i, j int) bool {
		return g.Blocks[headers[i]].Start < g.Blocks[headers[j]].Start
	})
	for i, h := range headers {
		l := byHeader[h]
		l.Index = i
		for b := range l.Blocks {
			l.BlockIDs = append(l.BlockIDs, b)
		}
		sort.Ints(l.BlockIDs)
		g.Loops = append(g.Loops, l)
	}
	// Exits.
	for _, l := range g.Loops {
		seen := map[int]bool{}
		for _, b := range l.BlockIDs {
			for _, s := range g.Blocks[b].Succs {
				if !l.Blocks[s] && !seen[s] {
					seen[s] = true
					l.Exits = append(l.Exits, s)
				}
			}
		}
		sort.Ints(l.Exits)
	}
	// Nesting: parent is the smallest strictly-containing loop.
	for i, l := range g.Loops {
		best := -1
		for j, o := range g.Loops {
			if i == j || len(o.Blocks) <= len(l.Blocks) {
				continue
			}
			contains := true
			for _, b := range l.BlockIDs {
				if !o.Blocks[b] {
					contains = false
					break
				}
			}
			if contains && (best == -1 || len(o.Blocks) > 0 && len(g.Loops[best].Blocks) > len(o.Blocks)) {
				best = j
			}
		}
		l.Parent = best
	}
	for _, l := range g.Loops {
		if l.Parent >= 0 {
			g.Loops[l.Parent].Children = append(g.Loops[l.Parent].Children, l.Index)
			g.Loops[l.Parent].HasInner = true
		}
	}
	var depth func(*Loop) int
	depth = func(l *Loop) int {
		if l.Parent == -1 {
			return 1
		}
		return depth(g.Loops[l.Parent]) + 1
	}
	for _, l := range g.Loops {
		l.Depth = depth(l)
	}
	// Conditionally-executed inner loops (multilevel candidates): the child
	// header does not dominate any of the parent's back-edge sources.
	for _, l := range g.Loops {
		for _, ci := range l.Children {
			c := g.Loops[ci]
			dominatesAll := true
			for _, e := range l.Ends {
				if !g.Dominates(c.Header, e) {
					dominatesAll = false
					break
				}
			}
			if !dominatesAll {
				l.CondInner = true
			}
		}
	}
}

// MaxDepth returns the deepest loop nesting in the method.
func (g *Graph) MaxDepth() int {
	d := 0
	for _, l := range g.Loops {
		if l.Depth > d {
			d = l.Depth
		}
	}
	return d
}

// ExecutesEveryIteration reports whether block b runs exactly once per
// iteration of loop l: it belongs to l (and no nested loop) and dominates
// every back-edge source. Sync-lock placement requires this of the protected
// local's access blocks, or a skipped signal would deadlock the successor.
func (g *Graph) ExecutesEveryIteration(l *Loop, b int) bool {
	if !l.Blocks[b] || g.InnermostLoopOf(b) != l {
		return false
	}
	for _, e := range l.Ends {
		if !g.Dominates(b, e) {
			return false
		}
	}
	return true
}

// InnermostLoopOf returns the innermost loop containing block b, or nil.
func (g *Graph) InnermostLoopOf(b int) *Loop {
	var best *Loop
	for _, l := range g.Loops {
		if l.Blocks[b] && (best == nil || len(l.Blocks) < len(best.Blocks)) {
			best = l
		}
	}
	return best
}
