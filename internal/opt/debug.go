package opt

import (
	"repro/internal/ir"
)

// Debug-metadata maintenance helpers shared by the passes. The "correct"
// behaviour a pass should exhibit lives here; the passes call these unless a
// defect is active.

// RewriteDbgUses replaces every debug-intrinsic reference to register t in
// fn with the replacement value. Used when a pass deletes or folds the
// definition of t: a constant replacement preserves availability, an Undef
// replacement marks the variable optimized-out from that point.
func RewriteDbgUses(fn *ir.Func, t int, repl ir.Value) int {
	n := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal && in.Args[0].IsTemp() && in.Args[0].Temp == t {
				in.Args[0] = repl
				n++
			}
		}
	}
	return n
}

// DropDbgUses marks all debug intrinsics referencing t as undefined. This is
// the lossy behaviour that correct salvage code avoids for recoverable
// (constant) values.
func DropDbgUses(fn *ir.Func, t int) int {
	return RewriteDbgUses(fn, t, ir.UndefVal())
}

// HoistDbgVals moves the debug intrinsics of src to the front of dst,
// preserving their order. Non-debug instructions are untouched. Used when a
// block is removed but its debug updates must survive on the path through
// dst.
func HoistDbgVals(src, dst *ir.Block) int {
	var dbgs []*ir.Instr
	var rest []*ir.Instr
	for _, in := range src.Instrs {
		if in.Op == ir.OpDbgVal {
			dbgs = append(dbgs, in)
		} else {
			rest = append(rest, in)
		}
	}
	if len(dbgs) == 0 {
		return 0
	}
	src.Instrs = rest
	dst.Instrs = append(append([]*ir.Instr{}, dbgs...), dst.Instrs...)
	return len(dbgs)
}

// SalvageValue attempts to express the value computed by in as a constant.
// It returns the constant value and true when in is a foldable definition
// (a copy of a constant, or an operation over constants).
func SalvageValue(in *ir.Instr) (ir.Value, bool) {
	switch in.Op {
	case ir.OpCopy:
		if in.Args[0].IsConst() {
			c := in.Args[0].C
			if in.Width != nil {
				c = in.Width.Truncate(c)
			}
			return ir.ConstVal(c), true
		}
	case ir.OpUn:
		if in.Args[0].IsConst() {
			return ir.ConstVal(ir.EvalUn(in.UnOp, in.Args[0].C, in.Width)), true
		}
	case ir.OpBin:
		if in.Args[0].IsConst() && in.Args[1].IsConst() {
			return ir.ConstVal(ir.EvalBin(in.BinOp, in.Args[0].C, in.Args[1].C, in.Width)), true
		}
	}
	return ir.Value{}, false
}

// DbgValsFor returns all debug intrinsics in fn that describe v.
func DbgValsFor(fn *ir.Func, v *ir.Var) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal && in.V == v {
				out = append(out, in)
			}
		}
	}
	return out
}

// RemoveInstr deletes the instruction at index i of block b.
func RemoveInstr(b *ir.Block, i int) {
	b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
}

// replaceAllUses substitutes value repl for register t in every non-debug
// operand of fn and returns the number of replacements. Debug uses are
// handled separately so callers can model defective salvage.
func replaceAllUses(fn *ir.Func, t int, repl ir.Value) int {
	n := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal {
				continue
			}
			for i, a := range in.Args {
				if a.IsTemp() && a.Temp == t {
					in.Args[i] = repl
					n++
				}
			}
		}
	}
	return n
}

// defDominatesUses reports whether the definition of register t at
// b.Instrs[idx] dominates every non-debug use of t: uses later in the same
// block, or in blocks strictly dominated by b. Replacing uses of a
// single-static-definition register is only sound under this condition —
// the definition may sit inside a loop with uses executing before it.
func defDominatesUses(fn *ir.Func, dom *DomTree, b *ir.Block, idx, t int) bool {
	for _, bb := range fn.Blocks {
		for i, in := range bb.Instrs {
			if in.Op == ir.OpDbgVal {
				continue
			}
			uses := false
			for _, a := range in.Args {
				if a.IsTemp() && a.Temp == t {
					uses = true
				}
			}
			if !uses {
				continue
			}
			if bb == b {
				if i <= idx {
					return false
				}
				continue
			}
			if !dom.Dominates(b, bb) {
				return false
			}
		}
	}
	return true
}

// singleDefs returns, for each register, its unique defining instruction, or
// nil when the register has zero or multiple definitions.
func singleDefs(fn *ir.Func) []*ir.Instr {
	defs := make([]*ir.Instr, fn.NTemp)
	counts := make([]int, fn.NTemp)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst >= 0 {
				counts[in.Dst]++
				defs[in.Dst] = in
			}
		}
	}
	for t := range defs {
		if counts[t] != 1 {
			defs[t] = nil
		}
	}
	return defs
}

// hasSideEffects reports whether removing in could change observable
// behaviour (stores, calls, volatile loads, control flow).
func hasSideEffects(in *ir.Instr, m *ir.Module) bool {
	switch in.Op {
	case ir.OpStoreG, ir.OpStoreSlot, ir.OpStorePtr, ir.OpRet, ir.OpBr, ir.OpCondBr:
		return true
	case ir.OpCall:
		callee := m.Func(in.Call)
		return callee == nil || !callee.Pure
	case ir.OpLoadG:
		return in.G.Volatile
	case ir.OpLoadPtr:
		// Conservatively treat pointer loads as effectful: the pointee may
		// be volatile storage.
		return true
	}
	return false
}
