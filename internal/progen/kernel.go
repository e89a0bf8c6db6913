package progen

import (
	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
)

// largestLoop returns the instruction count of the largest natural loop in
// main — the speculative kernel a reproducer actually exercises. Returns 0
// for a loop-free program.
func largestLoop(bp *bytecode.Program) int {
	g := cfg.Build(bp, bp.Methods[bp.Main])
	best := 0
	for _, l := range g.Loops {
		n := 0
		for _, b := range l.BlockIDs {
			blk := g.Blocks[b]
			n += blk.End - blk.Start
		}
		if n > best {
			best = n
		}
	}
	return best
}
