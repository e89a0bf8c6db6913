package cfg

import "jrpm/internal/bytecode"

// MaxLoopsPerMethod bounds the per-method loop index used in global loop
// ids communicated to the TEST hardware.
const MaxLoopsPerMethod = 256

// GlobalLoopID composes the loop id carried by sloop/eoi/eloop annotations.
func GlobalLoopID(methodID, loopIndex int) int64 {
	return int64(methodID)*MaxLoopsPerMethod + int64(loopIndex)
}

// SplitLoopID recovers (methodID, loopIndex) from a global loop id.
func SplitLoopID(id int64) (methodID, loopIndex int) {
	return int(id / MaxLoopsPerMethod), int(id % MaxLoopsPerMethod)
}

// ProgramInfo bundles the CFGs of every method with transitive behaviour
// flags derived from the call graph.
type ProgramInfo struct {
	Program *bytecode.Program
	Graphs  []*Graph

	// Per-method flags, transitive through calls.
	DoesIO     []bool
	Allocs     []bool
	HasMonitor []bool
}

// AnalyzeProgram builds the CFG for every method and computes transitive
// call-graph flags, then folds them into each loop's behaviour flags.
func AnalyzeProgram(p *bytecode.Program) *ProgramInfo {
	info := &ProgramInfo{Program: p}
	for _, m := range p.Methods {
		info.Graphs = append(info.Graphs, Build(p, m))
	}
	n := len(p.Methods)
	info.DoesIO = make([]bool, n)
	info.Allocs = make([]bool, n)
	info.HasMonitor = make([]bool, n)

	// Direct flags.
	callees := make([][]int, n)
	for i, m := range p.Methods {
		for _, in := range m.Code {
			switch in.Op {
			case bytecode.PRINT:
				info.DoesIO[i] = true
			case bytecode.NEW, bytecode.NEWARRAY:
				info.Allocs[i] = true
			case bytecode.MONITORENTER:
				info.HasMonitor[i] = true
			case bytecode.INVOKE:
				callees[i] = append(callees[i], int(in.A))
			}
		}
	}
	// Transitive closure over the call graph.
	changed := true
	for changed {
		changed = false
		for i := range p.Methods {
			for _, c := range callees[i] {
				if info.DoesIO[c] && !info.DoesIO[i] {
					info.DoesIO[i] = true
					changed = true
				}
				if info.Allocs[c] && !info.Allocs[i] {
					info.Allocs[i] = true
					changed = true
				}
				if info.HasMonitor[c] && !info.HasMonitor[i] {
					info.HasMonitor[i] = true
					changed = true
				}
			}
		}
	}
	// Fold into loop flags.
	for mi, g := range info.Graphs {
		_ = mi
		for _, l := range g.Loops {
			for _, b := range l.BlockIDs {
				blk := g.Blocks[b]
				for pc := blk.Start; pc < blk.End; pc++ {
					in := g.Method.Code[pc]
					switch in.Op {
					case bytecode.PRINT:
						l.HasIO = true
					case bytecode.NEW, bytecode.NEWARRAY:
						l.HasAlloc = true
					case bytecode.MONITORENTER:
						l.HasMonitor = true
					case bytecode.INVOKE:
						l.HasCall = true
						c := int(in.A)
						l.HasIO = l.HasIO || info.DoesIO[c]
						l.HasAlloc = l.HasAlloc || info.Allocs[c]
						l.HasMonitor = l.HasMonitor || info.HasMonitor[c]
					}
				}
			}
		}
	}
	return info
}

// TotalLoops counts loops across all methods (Table 3 column c).
func (info *ProgramInfo) TotalLoops() int {
	n := 0
	for _, g := range info.Graphs {
		n += len(g.Loops)
	}
	return n
}

// MaxLoopDepth returns the deepest loop nest in the program, counting call
// nesting only within single methods (Table 3 column d reports the lexical
// nest depth).
func (info *ProgramInfo) MaxLoopDepth() int {
	d := 0
	for _, g := range info.Graphs {
		if md := g.MaxDepth(); md > d {
			d = md
		}
	}
	return d
}
