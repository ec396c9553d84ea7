package opt

import (
	"repro/internal/bugs"
	"repro/internal/ir"
)

// DCE removes side-effect-free definitions whose results are never used by
// real code. The recoverable debug values of removed definitions are
// rewritten to constants; under bugs.GCDCEDrop they are dropped even though
// the emitted code would be identical either way — the paper's 105176.
type DCE struct{}

// Name implements Pass.
func (DCE) Name() string { return "dce" }

// Run implements Pass.
func (DCE) Run(fn *ir.Func, ctx *Context) bool {
	return deleteDeadDefs(fn, ctx, bugs.GCDCEDrop, "dce")
}

// DSE eliminates stores that are overwritten before any possible read.
// It handles global stores within a block (no intervening loads, calls, or
// pointer operations) and stores to non-address-taken slots. Debug
// intrinsics are unaffected by a correct implementation; under
// bugs.GCDSEDrop the pass also deletes the debug intrinsics that carried the
// overwritten value (105248).
type DSE struct{}

// Name implements Pass.
func (DSE) Name() string { return "dse" }

// Run implements Pass.
func (DSE) Run(fn *ir.Func, ctx *Context) bool {
	changed := false
	for _, b := range fn.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpStoreG || in.G.Volatile || !in.Args[0].IsConst() {
				continue
			}
			// Find a subsequent store to the same cell with no intervening
			// observer.
			dead := false
			for j := i + 1; j < len(b.Instrs); j++ {
				jj := b.Instrs[j]
				if jj.Op == ir.OpDbgVal {
					continue
				}
				if jj.Op == ir.OpStoreG && jj.G == in.G &&
					jj.Args[0].IsConst() && jj.Args[0].C == in.Args[0].C {
					dead = true
					break
				}
				if observesMemory(jj) {
					break
				}
			}
			if !dead {
				continue
			}
			if ctx.Defect(bugs.GCDSEDrop) {
				// Defective cleanup: the debug updates adjacent to the dead
				// store (describing the stored value) are deleted with it.
				val := in.Args[1]
				for j := i + 1; j < len(b.Instrs); j++ {
					jj := b.Instrs[j]
					if jj.Op == ir.OpDbgVal && jj.Args[0] == val {
						jj.Args[0] = ir.UndefVal()
						ctx.Count("dse.dropped-dbg")
					}
					if jj.Op != ir.OpDbgVal {
						break
					}
				}
			}
			RemoveInstr(b, i)
			i--
			changed = true
			ctx.Count("dse.removed-stores")
		}
	}
	return changed
}

// observesMemory reports whether the instruction may read global memory or
// transfer control somewhere that does.
func observesMemory(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpLoadG, ir.OpLoadPtr, ir.OpStorePtr, ir.OpCall, ir.OpRet, ir.OpBr, ir.OpCondBr:
		return true
	}
	return false
}

// CopyProp forwards the sources of register copies into their uses. Debug
// intrinsics referencing a propagated register are retargeted to the source
// value, which preserves availability. Under bugs.GCCopyPropRange the
// retargeted intrinsics are flagged so that code generation truncates their
// ranges just before the next call (105179: the emitted range fails to
// cover the call address).
type CopyProp struct{}

// Name implements Pass.
func (CopyProp) Name() string { return "copyprop" }

// Run implements Pass.
func (CopyProp) Run(fn *ir.Func, ctx *Context) bool {
	changed := false
	for {
		defs := singleDefs(fn)
		dom := NewDomTree(fn)
		progressed := false
		for _, b := range fn.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if in.Op != ir.OpCopy || in.Dst < 0 || defs[in.Dst] != in {
					continue
				}
				if in.Width != nil && in.Width.Width < 64 {
					continue // truncating copy: not a pure move
				}
				if !defDominatesUses(fn, dom, b, i, in.Dst) {
					continue
				}
				src := in.Args[0]
				// The source must be stable: a constant, or a register with
				// a single definition.
				if src.IsTemp() && defs[src.Temp] == nil {
					continue
				}
				if src.IsTemp() && src.Temp == in.Dst {
					continue
				}
				replaceAllUses(fn, in.Dst, src)
				n := RewriteDbgUses(fn, in.Dst, src)
				// The catalogued range bug (105179, 105239) surfaces only at
				// the debugger-friendly level and only for variables whose
				// location already needed multiple ranges.
				if n > 0 && ctx.Defect(bugs.GCCopyPropRange) && ctx.Level == "Og" {
					var affected []*ir.Instr
					for _, bb := range fn.Blocks {
						for _, ii := range bb.Instrs {
							if ii.Op == ir.OpDbgVal && ii.Args[0] == src {
								affected = append(affected, ii)
							}
						}
					}
					if len(affected) >= 2 {
						for _, ii := range affected {
							ii.Flags |= ir.DbgTruncRange
						}
						ctx.Count("copyprop.flagged-trunc")
					}
				}
				RemoveInstr(b, i)
				i--
				progressed = true
				changed = true
				ctx.Count("copyprop.forwarded")
			}
		}
		if !progressed {
			break
		}
	}
	return changed
}
