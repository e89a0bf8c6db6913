package cfg

import (
	"sort"

	"jrpm/internal/bytecode"
)

// computeLiveness runs backward liveness dataflow for local slots.
func (g *Graph) computeLiveness(p *bytecode.Program) {
	n := len(g.Blocks)
	use := make([]map[int]bool, n)
	def := make([]map[int]bool, n)
	for _, b := range g.Blocks {
		u, d := map[int]bool{}, map[int]bool{}
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Method.Code[pc]
			switch in.Op {
			case bytecode.LOAD:
				if !d[int(in.A)] {
					u[int(in.A)] = true
				}
			case bytecode.IINC:
				if !d[int(in.A)] {
					u[int(in.A)] = true
				}
				d[int(in.A)] = true
			case bytecode.STORE:
				d[int(in.A)] = true
			}
		}
		use[b.ID], def[b.ID] = u, d
	}
	g.liveIn = make([]map[int]bool, n)
	g.liveOut = make([]map[int]bool, n)
	for i := range g.liveIn {
		g.liveIn[i] = map[int]bool{}
		g.liveOut[i] = map[int]bool{}
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := g.Blocks[i]
			out := g.liveOut[i]
			for _, s := range b.Succs {
				// order-insensitive: dataflow set union iterated to a fixpoint
				for slot := range g.liveIn[s] {
					if !out[slot] {
						out[slot] = true
						changed = true
					}
				}
			}
			in := g.liveIn[i]
			// order-insensitive: dataflow set union iterated to a fixpoint
			for slot := range use[i] {
				if !in[slot] {
					in[slot] = true
					changed = true
				}
			}
			// order-insensitive: dataflow set union iterated to a fixpoint
			for slot := range out {
				if !def[i][slot] && !in[slot] {
					in[slot] = true
					changed = true
				}
			}
		}
	}
}

// LiveIn returns the locals live on entry to block b.
func (g *Graph) LiveIn(b int) map[int]bool { return g.liveIn[b] }

// classifyLocals fills each loop's local-variable classification.
func (g *Graph) classifyLocals(p *bytecode.Program) {
	for _, l := range g.Loops {
		g.classifyLoop(p, l)
	}
}

func (g *Graph) classifyLoop(p *bytecode.Program, l *Loop) {
	code := g.Method.Code
	l.Written = map[int]bool{}
	l.Read = map[int]bool{}
	l.Inductors = map[int]int64{}
	l.Resetable = map[int]int64{}
	l.Reductions = map[int]bytecode.Op{}
	l.ResetAfterInc = map[int]bool{}

	stores := map[int][]storeSite{}
	for _, b := range l.BlockIDs {
		blk := g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			in := code[pc]
			switch in.Op {
			case bytecode.LOAD:
				l.Read[int(in.A)] = true
			case bytecode.STORE:
				l.Written[int(in.A)] = true
				stores[int(in.A)] = append(stores[int(in.A)], storeSite{b, pc})
			case bytecode.IINC:
				l.Read[int(in.A)] = true
				l.Written[int(in.A)] = true
				stores[int(in.A)] = append(stores[int(in.A)], storeSite{b, pc})
			case bytecode.RETURN, bytecode.IRETURN, bytecode.ATHROW:
				l.HasEscape = true
			}
		}
	}

	// Carried: written in the loop and live around the back edge.
	for s := range l.Written {
		if g.liveIn[l.Header][s] {
			l.Carried = append(l.Carried, s)
		}
	}
	sort.Ints(l.Carried)

	// Invariant: read but never written.
	for s := range l.Read {
		if !l.Written[s] {
			l.Invariant = append(l.Invariant, s)
		}
	}
	sort.Ints(l.Invariant)

	// LiveOut: written locals live at some loop exit.
	liveExit := map[int]bool{}
	for _, e := range l.Exits {
		// order-insensitive: set insertion
		for s := range g.liveIn[e] {
			liveExit[s] = true
		}
	}
	for s := range l.Written {
		if liveExit[s] {
			l.LiveOut = append(l.LiveOut, s)
		}
	}
	sort.Ints(l.LiveOut)

	// dominatesEnds: does block b execute on every iteration path?
	dominatesEnds := func(b int) bool {
		if inner := g.InnermostLoopOf(b); inner != l {
			return false // inside a nested loop: executes 0..n times
		}
		for _, e := range l.Ends {
			if !g.Dominates(b, e) {
				return false
			}
		}
		return true
	}

	// Inductors and resetable inductors.
	for _, s := range l.Carried {
		var incSites, otherSites []storeSite
		var step int64
		ok := true
		for _, site := range stores[s] {
			if st, isInc := incrementStep(code, site.pc, s); isInc {
				if dominatesEnds(site.block) {
					incSites = append(incSites, site)
					step = st
					continue
				}
			}
			otherSites = append(otherSites, site)
		}
		if len(incSites) != 1 {
			ok = false
		}
		if !ok {
			continue
		}
		if len(otherSites) == 0 {
			l.Inductors[s] = step
		} else {
			// Extra stores must all be conditional (off the dominating path),
			// and each must run either always after the increment or always
			// before it in its iteration: the reset names the iteration whose
			// start value it stores, which differs by one between the two.
			inc := incSites[0]
			conditional := true
			after := map[int]bool{}
			for _, site := range otherSites {
				if dominatesEnds(site.block) {
					conditional = false
					break
				}
				a, ok := g.incrementBefore(l, inc, site)
				if !ok {
					conditional = false
					break
				}
				after[site.pc] = a
			}
			if conditional {
				l.Resetable[s] = step
				// order-insensitive: map copy
				for pc, a := range after {
					l.ResetAfterInc[pc] = a
				}
			}
		}
	}

	// Reductions: carried locals whose every access is an associative
	// accumulation, excluding inductors.
	for _, s := range l.Carried {
		if _, isInd := l.Inductors[s]; isInd {
			continue
		}
		if _, isRes := l.Resetable[s]; isRes {
			continue
		}
		if op, ok := g.reductionOp(p, l, s); ok {
			l.Reductions[s] = op
		}
	}
}

// storeSite is one store to a local inside a loop.
type storeSite struct{ block, pc int }

// incrementBefore reports whether a loop's per-iteration increment at inc
// has always executed when control reaches the conditional store at site
// in the same iteration (after), or never has (ok with after false). ok is
// false when it depends on the path: the store is reachable both without
// the increment and from it.
func (g *Graph) incrementBefore(l *Loop, inc, site storeSite) (after, ok bool) {
	if inc.block == site.block {
		return inc.pc < site.pc, true
	}
	if g.Dominates(inc.block, site.block) {
		return true, true
	}
	// Search forward from the increment without crossing the back edge.
	seen := map[int]bool{inc.block: true}
	work := []int{inc.block}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Blocks[b].Succs {
			if s == site.block {
				return false, false
			}
			if s != l.Header && l.Blocks[s] && !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false, true
}

// IncrementStep recognizes the two inductor increment shapes ending at pc
// for slot s (exported for the JIT, which must locate and elide the
// increment when applying the non-communicating inductor optimization).
func IncrementStep(code []bytecode.Ins, pc, s int) (int64, bool) {
	return incrementStep(code, pc, s)
}

// incrementStep recognizes the two increment shapes at pc for slot s:
// IINC s, c and the sequence LOAD s; CONST c; IADD|ISUB; STORE s (pc is the
// STORE or IINC). It returns the signed step.
func incrementStep(code []bytecode.Ins, pc int, s int) (int64, bool) {
	in := code[pc]
	if in.Op == bytecode.IINC && int(in.A) == s {
		return in.B, true
	}
	if in.Op != bytecode.STORE || int(in.A) != s || pc < 3 {
		return 0, false
	}
	ld, c, op := code[pc-3], code[pc-2], code[pc-1]
	if ld.Op != bytecode.LOAD || int(ld.A) != s || c.Op != bytecode.CONST {
		return 0, false
	}
	switch op.Op {
	case bytecode.IADD:
		return c.A, true
	case bytecode.ISUB:
		return -c.A, true
	}
	return 0, false
}

// reductionOps are the associative, commutative accumulation operators.
var reductionOps = map[bytecode.Op]bool{
	bytecode.IADD: true, bytecode.IMUL: true,
	bytecode.IMIN: true, bytecode.IMAX: true,
	bytecode.FADD: true, bytecode.FMUL: true,
	bytecode.FMIN: true, bytecode.FMAX: true,
}

// taint values for the reduction scan.
const (
	clean = iota
	loadedS
	updatedS
)

// reductionOp checks whether every access to slot s inside the loop is part
// of an `s = s op expr` accumulation with a single consistent operator. The
// scan is a per-block abstract interpretation of the operand stack tracking
// values derived from LOAD s.
func (g *Graph) reductionOp(p *bytecode.Program, l *Loop, s int) (bytecode.Op, bool) {
	var op bytecode.Op
	updates := 0
	for _, b := range l.BlockIDs {
		blk := g.Blocks[b]
		var stack []int
		for pc := blk.Start; pc < blk.End; pc++ {
			in := g.Method.Code[pc]
			switch {
			case in.Op == bytecode.LOAD && int(in.A) == s:
				stack = append(stack, loadedS)
			case in.Op == bytecode.IINC && int(in.A) == s:
				// A constant bump is an additive reduction update.
				if op != 0 && op != bytecode.IADD {
					return 0, false
				}
				op = bytecode.IADD
				updates++
			case in.Op == bytecode.STORE && int(in.A) == s:
				if len(stack) == 0 {
					return 0, false
				}
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top != updatedS {
					return 0, false
				}
				updates++
			case reductionOps[in.Op]:
				if len(stack) < 2 {
					return 0, false
				}
				a, bb := stack[len(stack)-2], stack[len(stack)-1]
				stack = stack[:len(stack)-2]
				switch {
				case a == clean && bb == clean:
					stack = append(stack, clean)
				case (a == loadedS && bb == clean) || (a == clean && bb == loadedS):
					if op != 0 && op != in.Op {
						return 0, false
					}
					op = in.Op
					stack = append(stack, updatedS)
				default:
					return 0, false
				}
			default:
				pops, pushes := bytecode.StackEffect(p, in)
				if pops > len(stack) {
					// Block boundary mismatch (values flowed in); be safe.
					return 0, false
				}
				for i := 0; i < pops; i++ {
					if stack[len(stack)-1] != clean {
						return 0, false
					}
					stack = stack[:len(stack)-1]
				}
				for i := 0; i < pushes; i++ {
					stack = append(stack, clean)
				}
			}
		}
		for _, v := range stack {
			if v != clean {
				return 0, false // taint escapes the block
			}
		}
	}
	if updates == 0 || op == 0 {
		return 0, false
	}
	return op, true
}
