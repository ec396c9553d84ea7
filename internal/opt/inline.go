package opt

import (
	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Inline replaces calls to small, non-recursive, defined functions with the
// callee's body. Callee variables join the caller as inlined variables
// carrying an InlineSite chain; code generation later emits abstract and
// concrete DW_TAG_inlined_subroutine DIEs from that information.
//
// Debug-related behaviours:
//   - Correct: parameter variables of the callee receive a DbgVal with the
//     argument value at the inlined entry.
//   - bugs.GCInlineWrongLoc: the locations of inlined parameters are
//     attributed to the wrong frame, so the debugger cannot resolve them at
//     the call point even though the values are tracked (104549).
//   - bugs.CLInlineAbstractOnly: constant locations of inlined variables
//     are emitted only on the abstract origin DIE. That is legitimate DWARF
//     that one debugger cannot consume (50076 interplay) and the reason the
//     Inliner tops the clang triage table.
type Inline struct {
	// MaxInstrs is the callee size threshold; defaults to 40.
	MaxInstrs int
}

// Name implements Pass.
func (Inline) Name() string { return "inline" }

// RunModule implements ModulePass.
func (p Inline) RunModule(ctx *Context) bool {
	max := p.MaxInstrs
	if max == 0 {
		max = 40
	}
	changed := false
	for _, f := range ctx.Mod.Funcs {
		if f.Opaque {
			continue
		}
		// Repeat until no more inlinable calls in f. Inlined bodies can
		// bring new calls, but never to a recursive callee or back into f:
		// both are rejected, so this terminates.
		for p.inlineOneCall(ctx, f, max) {
			changed = true
		}
	}
	return changed
}

// Run implements Pass (unused for module passes).
func (Inline) Run(fn *ir.Func, ctx *Context) bool { return false }

func instrCount(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// inlineOneCall finds the first inlinable call in caller and inlines it.
func (p Inline) inlineOneCall(ctx *Context, caller *ir.Func, max int) bool {
	for _, b := range caller.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			callee := ctx.Mod.Func(in.Call)
			if callee == nil || callee.Opaque || callee.Name == caller.Name {
				continue
			}
			if instrCount(callee) > max || callsInto(callee, caller.Name, ctx.Mod, map[string]bool{}) ||
				callsInto(callee, callee.Name, ctx.Mod, map[string]bool{}) {
				continue
			}
			p.doInline(ctx, caller, b, i, callee)
			ctx.Count("inline.inlined")
			return true
		}
	}
	return false
}

// callsInto reports whether f (transitively) calls target, which would make
// inlining f into target a recursion hazard. With target f itself it
// reports whether f is recursive: each inlined copy of such a callee
// brings a call back into its cycle.
func callsInto(f *ir.Func, target string, m *ir.Module, seen map[string]bool) bool {
	if seen[f.Name] {
		return false
	}
	seen[f.Name] = true
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			if in.Call == target {
				return true
			}
			if next := m.Func(in.Call); next != nil && !next.Opaque {
				if callsInto(next, target, m, seen) {
					return true
				}
			}
		}
	}
	return false
}

// doInline splices callee's body in place of the call at b.Instrs[callIdx].
func (p Inline) doInline(ctx *Context, caller *ir.Func, b *ir.Block, callIdx int, callee *ir.Func) {
	call := b.Instrs[callIdx]
	site := &ir.InlineSite{Callee: callee.Name, CallLine: call.Line,
		ID: caller.NewInlineID(), Parent: call.At}

	// Remap callee registers and slots into the caller's namespace.
	tempMap := make([]int, callee.NTemp)
	for t := range tempMap {
		tempMap[t] = caller.NewTemp()
	}
	slotMap := make([]int, callee.NSlot)
	for s, size := range callee.Slots {
		slotMap[s] = caller.NewSlot(size)
	}
	// Import callee variables as inlined variables.
	varMap := map[*ir.Var]*ir.Var{}
	for _, v := range callee.Vars {
		nv := &ir.Var{Name: v.Name, Type: v.Type, DeclLine: v.DeclLine,
			AddrTaken: v.AddrTaken, IsParam: v.IsParam, Inlined: site,
			SuppressDIE: v.SuppressDIE, InNestedScope: v.InNestedScope}
		if v.Inlined != nil {
			// Variables already inlined into the callee get a chained site.
			nv.Inlined = &ir.InlineSite{Callee: v.Inlined.Callee, CallLine: v.Inlined.CallLine,
				ID: caller.NewInlineID(), Parent: site}
		}
		if v.Slot >= 0 {
			nv.Slot = slotMap[v.Slot]
		} else {
			nv.Slot = -1
		}
		varMap[v] = nv
		caller.Vars = append(caller.Vars, nv)
	}
	// Clone callee blocks.
	blockMap := map[*ir.Block]*ir.Block{}
	var newBlocks []*ir.Block
	for _, cb := range callee.Blocks {
		nb := caller.NewBlock()
		blockMap[cb] = nb
		newBlocks = append(newBlocks, nb)
	}
	// Continuation block: the remainder of b after the call.
	cont := caller.NewBlock()
	cont.Instrs = append(cont.Instrs, b.Instrs[callIdx+1:]...)

	retReg := call.Dst
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, in := range cb.Instrs {
			ni := in.Clone()
			if ni.Dst >= 0 {
				ni.Dst = tempMap[ni.Dst]
			}
			for ai, a := range ni.Args {
				switch a.Kind {
				case ir.Temp:
					ni.Args[ai] = ir.Value{Kind: ir.Temp, Temp: tempMap[a.Temp]}
				case ir.SlotRef:
					ni.Args[ai] = ir.Value{Kind: ir.SlotRef, Temp: slotMap[a.Temp]}
				}
			}
			switch ni.Op {
			case ir.OpLoadSlot, ir.OpStoreSlot, ir.OpAddrSlot:
				ni.Slot = slotMap[ni.Slot]
			case ir.OpDbgVal:
				ni.V = varMap[ni.V]
			}
			// Chain the inline site.
			if in.At == nil {
				ni.At = site
			} else {
				ni.At = &ir.InlineSite{Callee: in.At.Callee, CallLine: in.At.CallLine,
					ID: in.At.ID, Parent: site}
			}
			for ti, tgt := range ni.Tgts {
				ni.Tgts[ti] = blockMap[tgt]
			}
			if ni.Op == ir.OpRet {
				// Return becomes a copy to the call destination plus a jump
				// to the continuation.
				if retReg >= 0 && len(ni.Args) > 0 {
					nb.Instrs = append(nb.Instrs, &ir.Instr{Op: ir.OpCopy, Dst: retReg,
						Args: []ir.Value{ni.Args[0]}, Line: call.Line, At: call.At})
				}
				nb.Instrs = append(nb.Instrs, &ir.Instr{Op: ir.OpBr, Dst: -1,
					Tgts: []*ir.Block{cont}, Line: call.Line, At: call.At})
				continue
			}
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
	// Entry glue: store arguments into parameter slots (the callee body
	// still begins with slot-resident parameters or with mem2reg prologue
	// loads, both of which read the slot).
	entry := blockMap[callee.Entry()]
	var glue []*ir.Instr
	for pi, pv := range callee.Params {
		if pi >= len(call.Args) {
			break
		}
		nv := varMap[pv]
		slot := -1
		if pv.Slot >= 0 {
			slot = slotMap[pv.Slot]
		}
		arg := call.Args[pi]
		if slot >= 0 {
			var w *minic.IntType
			if it, ok := pv.Type.(*minic.IntType); ok {
				w = it
			}
			glue = append(glue, &ir.Instr{Op: ir.OpStoreSlot, Dst: -1, Slot: slot,
				Args: []ir.Value{ir.ConstVal(0), arg}, Width: w, Line: call.Line, At: call.At})
		}
		// Debug value for the inlined parameter at the inlined entry.
		dv := &ir.Instr{Op: ir.OpDbgVal, Dst: -1, V: nv, Args: []ir.Value{arg},
			Line: callee.Line, At: site}
		if ctx.Defect(bugs.GCInlineWrongLoc) {
			dv.Flags |= ir.DbgWrongFrame
			ctx.Count("inline.wrongframe")
		}
		if ctx.Defect(bugs.CLInlineAbstractOnly) && arg.IsConst() {
			dv.Flags |= ir.DbgAbstractOnly
			ctx.Count("inline.abstractonly")
		}
		glue = append(glue, dv)
	}
	entry.Instrs = append(glue, entry.Instrs...)

	// Rewire the call block: everything up to the call, then jump into the
	// inlined entry.
	b.Instrs = append(b.Instrs[:callIdx:callIdx], &ir.Instr{Op: ir.OpBr, Dst: -1,
		Tgts: []*ir.Block{entry}, Line: call.Line, At: call.At})
	_ = newBlocks
}
