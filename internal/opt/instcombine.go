package opt

import (
	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/minic"
)

// InstCombine is the peephole simplifier: it folds constant operations and
// applies algebraic identities (x*0, x&0, x+0, ...). When a folded register
// has a single definition, its uses are replaced by the folded constant and
// the definition is deleted.
//
// Correct debug maintenance rewrites debug intrinsics that referenced the
// folded register to the constant. Under bugs.CLInstCombineDrop the
// intrinsics are associated with an undefined location instead — the
// behaviour behind the paper's running example for Conjecture 1 (49975).
type InstCombine struct{}

// Name implements Pass.
func (InstCombine) Name() string { return "instcombine" }

// Run implements Pass.
func (ic InstCombine) Run(fn *ir.Func, ctx *Context) bool {
	changed := false
	for {
		round := false
		defs := singleDefs(fn)
		dom := NewDomTree(fn)
		for _, b := range fn.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				v, ok := ic.simplify(in)
				if !ok {
					continue
				}
				round = true
				ctx.Count("instcombine.simplified")
				// Replacing uses of the destination with a register operand
				// is only sound when that operand itself has a single
				// definition (it cannot be redefined between the folded
				// instruction and the uses).
				if v.IsTemp() && defs[v.Temp] == nil {
					in.Op = ir.OpCopy
					in.Args = []ir.Value{v}
					in.UnOp = 0
					in.BinOp = 0
					continue
				}
				// Use replacement additionally requires the definition to
				// dominate every use.
				if in.Dst >= 0 && defs[in.Dst] == in && !defDominatesUses(fn, dom, b, i, in.Dst) {
					in.Op = ir.OpCopy
					in.Args = []ir.Value{v}
					in.UnOp = 0
					in.BinOp = 0
					continue
				}
				if in.Dst >= 0 && defs[in.Dst] == in {
					// Single definition: fold uses and delete.
					replaceAllUses(fn, in.Dst, v)
					if v.IsConst() {
						if ctx.Defect(bugs.CLInstCombineDrop) {
							DropDbgUses(fn, in.Dst)
							ctx.Count("instcombine.dropped-dbg")
						} else {
							RewriteDbgUses(fn, in.Dst, v)
						}
					} else {
						RewriteDbgUses(fn, in.Dst, v)
					}
					RemoveInstr(b, i)
					i--
					defs = singleDefs(fn)
					continue
				}
				// Multiple definitions: rewrite in place as a copy.
				in.Op = ir.OpCopy
				in.Args = []ir.Value{v}
				in.UnOp = 0
				in.BinOp = 0
			}
		}
		if !round {
			break
		}
		changed = true
	}
	return changed
}

// simplify returns the value in computes when it can be folded or reduced
// to one of its operands.
func (InstCombine) simplify(in *ir.Instr) (ir.Value, bool) {
	if v, ok := SalvageValue(in); ok && in.Op != ir.OpCopy {
		return v, true
	}
	if in.Op != ir.OpBin {
		return ir.Value{}, false
	}
	x, y := in.Args[0], in.Args[1]
	// Identities that return an operand unchanged are only valid when the
	// instruction performs no truncation.
	wide := in.Width == nil || in.Width.Width == 64
	// Normalise: put the constant on the right for commutative operators.
	if x.IsConst() && !y.IsConst() {
		switch in.BinOp {
		case minic.Add, minic.Mul, minic.And, minic.Or, minic.Xor, minic.Eq, minic.Ne:
			x, y = y, x
		}
	}
	if !y.IsConst() {
		// Identical operands: x-x = 0, x^x = 0 (same register at the same
		// program point always holds the same value).
		if x.IsTemp() && y.IsTemp() && x.Temp == y.Temp {
			switch in.BinOp {
			case minic.Sub, minic.Xor:
				return ir.ConstVal(0), true
			case minic.And, minic.Or:
				if wide {
					return x, true
				}
			}
		}
		return ir.Value{}, false
	}
	c := y.C
	switch in.BinOp {
	case minic.Mul:
		if c == 0 {
			return ir.ConstVal(0), true
		}
		if c == 1 && wide {
			return x, true
		}
	case minic.And:
		if c == 0 {
			return ir.ConstVal(0), true
		}
		if c == -1 && wide {
			return x, true
		}
	case minic.Add, minic.Sub, minic.Or, minic.Xor, minic.Shl, minic.Shr:
		if c == 0 && wide {
			return x, true
		}
	case minic.Div:
		if c == 1 && wide && (in.Width == nil || !in.Width.Unsigned) {
			return x, true
		}
	case minic.Rem:
		if c == 1 {
			return ir.ConstVal(0), true
		}
	}
	return ir.Value{}, false
}
