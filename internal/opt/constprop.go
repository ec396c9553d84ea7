package opt

import (
	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/minic"
)

// CCP is the (simplified) sparse conditional constant propagation pass of
// the pipeline: single-definition registers whose definition folds to a
// constant are substituted everywhere and their definitions deleted;
// branches on constants are folded.
//
// Correct debug maintenance turns debug intrinsics over the folded register
// into constant locations (the DWARF DW_AT_const_value case). Defects:
//   - bugs.GCCCPNoConstValue: the constant is omitted and the intrinsic is
//     marked undefined (the paper's 105108/105161 hollow-DIE bugs).
//   - bugs.GCCCPRangeShrink: the constant is kept but the intrinsic is sunk
//     to the end of its block, shrinking the covered range so availability
//     flickers during the variable's lifetime (104938, Conjecture 3).
type CCP struct{}

// Name implements Pass.
func (CCP) Name() string { return "ccp" }

// Run implements Pass.
func (CCP) Run(fn *ir.Func, ctx *Context) bool {
	changed := false
	// A fold rewrites operands, debug intrinsics and non-terminator
	// instructions but never a branch target, so the CFG, and with it the
	// dominator tree and the loops, stays fixed for the whole call.
	dom := NewDomTree(fn)
	loops := dom.loops()
	for {
		defs := singleDefs(fn)
		var foldTemp = -1
		var foldVal ir.Value
		var foldBlock *ir.Block
		var foldIdx int
		var foldInstr *ir.Instr
		// Find the first foldable single-definition register whose
		// definition dominates all its uses.
	search:
		for _, b := range fn.Blocks {
			for i, in := range b.Instrs {
				if in.Dst < 0 || defs[in.Dst] != in {
					continue
				}
				if v, ok := SalvageValue(in); ok {
					if !defDominatesUses(fn, dom, b, i, in.Dst) {
						continue
					}
					foldTemp, foldVal, foldBlock, foldIdx = in.Dst, v, b, i
					foldInstr = in
					break search
				}
			}
		}
		if foldTemp < 0 {
			break
		}
		replaceAllUses(fn, foldTemp, foldVal)
		// The catalogued no-const-value defect (105108, 105161) involves
		// folds in loop context, where gcc's statement bookkeeping loses
		// the propagated constant; straight-line folds keep theirs. The
		// debugger-friendly level folds more carefully and only trips on
		// the nested-loop shape of the original report.
		loopDepth := 0
		for _, l := range loops {
			if l.Blocks[foldBlock] {
				loopDepth++
			}
		}
		noConst := ctx.Defect(bugs.GCCCPNoConstValue) &&
			(loopDepth >= 2 || (loopDepth >= 1 && ctx.Level != "Og"))
		// The range-shrink defect (104938) is Og-only and needs the shape
		// of its report: straight-line code whose block performs a call
		// (the value resurfaces at the call, flickering availability).
		shrink := ctx.Defect(bugs.GCCCPRangeShrink) && ctx.Level == "Og" &&
			loopDepth == 0 && blockHasCall(foldBlock) && foldVal.IsConst() && foldVal.C == 0
		switch {
		case noConst:
			DropDbgUses(fn, foldTemp)
			ctx.Count("ccp.dropped-const")
		case shrink:
			var rewritten []*ir.Instr
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpDbgVal && in.Args[0].IsTemp() && in.Args[0].Temp == foldTemp {
						rewritten = append(rewritten, in)
					}
				}
			}
			RewriteDbgUses(fn, foldTemp, foldVal)
			sinkDbgVals(fn, rewritten)
			ctx.Count("ccp.sunk-dbg")
		default:
			RewriteDbgUses(fn, foldTemp, foldVal)
		}
		// The debug fix-ups above may have reshuffled the block; remove the
		// folded instruction by identity, not by the stale index.
		idx := foldIdx
		if idx >= len(foldBlock.Instrs) || foldBlock.Instrs[idx] != foldInstr {
			idx = -1
			for i, in := range foldBlock.Instrs {
				if in == foldInstr {
					idx = i
					break
				}
			}
		}
		if idx >= 0 {
			RemoveInstr(foldBlock, idx)
		}
		ctx.Count("ccp.folded")
		changed = true
	}
	return changed
}

// blockHasCall reports whether b contains a call instruction.
func blockHasCall(b *ir.Block) bool {
	for _, in := range b.Instrs {
		if in.Op == ir.OpCall {
			return true
		}
	}
	return false
}

// sinkDbgVals moves the given debug intrinsics to the end of their blocks
// (just before the terminator). This models the defective range shrinkage
// of bugs.GCCCPRangeShrink: availability starts only near the block's end.
func sinkDbgVals(fn *ir.Func, targets []*ir.Instr) {
	isTarget := map[*ir.Instr]bool{}
	for _, in := range targets {
		isTarget[in] = true
	}
	for _, b := range fn.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpDbgVal || !isTarget[in] {
				continue
			}
			delete(isTarget, in)
			term := b.Term()
			if term == nil || i >= len(b.Instrs)-2 {
				continue
			}
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], in, term)
		}
	}
}

// VRP is the (simplified) value-range propagation pass: inside a branch
// taken only when register t equals a constant, uses of t are replaced by
// that constant. When all remaining uses of a definition disappear, the
// definition is deleted.
//
// Under bugs.GCVRPDrop the deleted definition's debug intrinsics are marked
// undefined instead of receiving the propagated constant (105007).
type VRP struct{}

// Name implements Pass.
func (VRP) Name() string { return "vrp" }

// Run implements Pass.
func (VRP) Run(fn *ir.Func, ctx *Context) bool {
	changed := false
	defs := singleDefs(fn)
	preds := fn.Preds()
	for _, b := range fn.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr || !t.Args[0].IsTemp() {
			continue
		}
		cond := defs[t.Args[0].Temp]
		if cond == nil || cond.Op != ir.OpBin {
			continue
		}
		var reg int
		var c ir.Value
		var eqSucc *ir.Block
		switch {
		case cond.BinOp == minic.Eq && cond.Args[0].IsTemp() && cond.Args[1].IsConst():
			reg, c, eqSucc = cond.Args[0].Temp, cond.Args[1], t.Tgts[0]
		case cond.BinOp == minic.Ne && cond.Args[0].IsTemp() && cond.Args[1].IsConst():
			reg, c, eqSucc = cond.Args[0].Temp, cond.Args[1], t.Tgts[1]
		default:
			continue
		}
		if defs[reg] == nil {
			continue // multiple definitions: the fact is not sparse
		}
		if len(preds[eqSucc]) != 1 || eqSucc == b {
			continue // the fact only holds on this edge
		}
		// Replace uses of reg in the equality successor.
		n := 0
		for _, in := range eqSucc.Instrs {
			if in.Op == ir.OpDbgVal {
				continue
			}
			for i, a := range in.Args {
				if a.IsTemp() && a.Temp == reg {
					in.Args[i] = c
					n++
				}
			}
		}
		if n > 0 {
			changed = true
			ctx.Count("vrp.propagated")
			// Debug intrinsics in the block can also carry the constant.
			for _, in := range eqSucc.Instrs {
				if in.Op == ir.OpDbgVal && in.Args[0].IsTemp() && in.Args[0].Temp == reg {
					if ctx.Defect(bugs.GCVRPDrop) {
						in.Args[0] = ir.UndefVal()
						ctx.Count("vrp.dropped-dbg")
					} else {
						in.Args[0] = c
					}
				}
			}
		}
	}
	// Delete definitions whose uses all disappeared, salvaging debug info.
	changed = deleteDeadDefs(fn, ctx, bugs.GCVRPDrop, "vrp") || changed
	return changed
}

// deleteDeadDefs removes side-effect-free definitions with no remaining
// non-debug uses. Debug intrinsics over a removed register are rewritten to
// the salvaged constant when possible — unless the named defect is active,
// in which case they are marked undefined.
func deleteDeadDefs(fn *ir.Func, ctx *Context, defect, statPrefix string) bool {
	changed := false
	for {
		uses := TempUseCounts(fn)
		removed := false
		for _, b := range fn.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if in.Dst < 0 || in.Op == ir.OpCall || uses[in.Dst] != 0 {
					continue
				}
				if hasSideEffects(in, ctx.Mod) || in.Op.IsTerminator() {
					continue
				}
				salvageForRemoval(fn, ctx, b, i, defect, statPrefix)
				RemoveInstr(b, i)
				i--
				removed = true
				changed = true
				ctx.Count(statPrefix + ".deleted-defs")
			}
		}
		if !removed {
			break
		}
	}
	return changed
}

// salvageForRemoval fixes up the debug intrinsics affected by deleting the
// definition at b.Instrs[idx]. For a register with a single definition all
// its debug references belong to this definition; for a multiply-defined
// register only the intrinsics between this definition and the register's
// next redefinition in the block do (mem2reg keeps them adjacent). The
// recoverable (constant) case is rewritten to a constant location unless
// the named defect is active.
func salvageForRemoval(fn *ir.Func, ctx *Context, b *ir.Block, idx int, defect, statPrefix string) {
	in := b.Instrs[idx]
	t := in.Dst
	repl, recoverable := SalvageValue(in)
	if recoverable && ctx.Defect(defect) {
		recoverable = false
		ctx.Count(statPrefix + ".dropped-dbg")
	}
	if !recoverable {
		repl = ir.UndefVal()
	}
	nDefs := 0
	for _, bb := range fn.Blocks {
		for _, ii := range bb.Instrs {
			if ii.Dst == t {
				nDefs++
			}
		}
	}
	if nDefs == 1 {
		RewriteDbgUses(fn, t, repl)
		return
	}
	for i := idx + 1; i < len(b.Instrs); i++ {
		ii := b.Instrs[i]
		if ii.Dst == t {
			break
		}
		if ii.Op == ir.OpDbgVal && ii.Args[0].IsTemp() && ii.Args[0].Temp == t {
			ii.Args[0] = repl
		}
	}
}
