package opt

import (
	"sort"

	"repro/internal/bugs"
	"repro/internal/ir"
)

// IPAPureConst detects side-effect-free ("pure") functions and exploits
// them: calls whose results are unused are deleted, and calls to functions
// that provably return a constant are folded.
//
// Correct folding rewrites the destination register's debug values to the
// constant. Under bugs.GCPureConstDrop they become undefined — the paper's
// 105108 discussion, where the deleted call's value was unrecoverable for
// gcc's design (ipa-pure-const is a top C3 culprit in Table 2).
type IPAPureConst struct{}

// Name implements Pass.
func (IPAPureConst) Name() string { return "ipa-pure-const" }

// Run implements Pass (unused; module pass).
func (IPAPureConst) Run(fn *ir.Func, ctx *Context) bool { return false }

// RunModule implements ModulePass.
func (p IPAPureConst) RunModule(ctx *Context) bool {
	// Propagate purity to a fixpoint (callees first).
	changedPurity := true
	for changedPurity {
		changedPurity = false
		for _, f := range ctx.Mod.Funcs {
			if f.Opaque || f.Pure {
				continue
			}
			if isPure(f, ctx.Mod) {
				f.Pure = true
				changedPurity = true
				ctx.Count("ipa-pure-const.marked-pure")
			}
		}
	}
	changed := false
	for _, f := range ctx.Mod.Funcs {
		if f.Opaque {
			continue
		}
		uses := TempUseCounts(f)
		dom := NewDomTree(f)
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if in.Op != ir.OpCall {
					continue
				}
				callee := ctx.Mod.Func(in.Call)
				if callee == nil || !callee.Pure {
					continue
				}
				if in.Dst < 0 || uses[in.Dst] == 0 {
					// Result unused: the call disappears.
					if in.Dst >= 0 {
						DropDbgUses(f, in.Dst)
					}
					RemoveInstr(b, i)
					i--
					changed = true
					ctx.Count("ipa-pure-const.deleted-calls")
					continue
				}
				if c, ok := constantReturn(callee); ok {
					if !defDominatesUses(f, dom, b, i, in.Dst) {
						continue
					}
					replaceAllUses(f, in.Dst, ir.ConstVal(c))
					if ctx.Defect(bugs.GCPureConstDrop) {
						// The deleted call's value is unrecoverable for the
						// defective bookkeeping: bindings of the result and
						// of registers it was copied into are voided (the
						// 105108 design-limitation discussion).
						DropDbgUses(f, in.Dst)
						for _, bb := range f.Blocks {
							for _, ii := range bb.Instrs {
								if ii.Op == ir.OpCopy && ii.Dst >= 0 && len(ii.Args) == 1 &&
									ii.Args[0].IsConst() && ii.Args[0].C == c {
									// Copies now feeding from the folded
									// constant came from the call result.
									DropDbgUses(f, ii.Dst)
								}
							}
						}
						ctx.Count("ipa-pure-const.dropped-dbg")
					} else {
						RewriteDbgUses(f, in.Dst, ir.ConstVal(c))
					}
					RemoveInstr(b, i)
					i--
					uses = TempUseCounts(f)
					changed = true
					ctx.Count("ipa-pure-const.folded-calls")
				}
			}
		}
	}
	return changed
}

// isPure reports whether f has no externally visible effects.
func isPure(f *ir.Func, m *ir.Module) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStoreG, ir.OpStorePtr, ir.OpLoadPtr, ir.OpAddrG, ir.OpAddrSlot:
				return false
			case ir.OpLoadG:
				if in.G.Volatile {
					return false
				}
			case ir.OpCall:
				callee := m.Func(in.Call)
				if callee == nil || callee.Opaque || !callee.Pure {
					return false
				}
			}
		}
	}
	return true
}

// constantReturn reports whether every return of f yields the same constant.
func constantReturn(f *ir.Func) (int64, bool) {
	var c int64
	seen := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		if len(t.Args) == 0 || !t.Args[0].IsConst() {
			return 0, false
		}
		if seen && t.Args[0].C != c {
			return 0, false
		}
		c = t.Args[0].C
		seen = true
	}
	return c, seen
}

// TopLevelReorder reorders module-level variables into a canonical layout
// and merges read-only globals with identical contents. Neither action
// changes observable behaviour.
//
// Under bugs.GCTopLevelReorder, variables whose values were loaded from a
// merged global lose their debug values — the mechanism behind the pass
// family's dominance of the gcc column of Table 2.
type TopLevelReorder struct{}

// Name implements Pass.
func (TopLevelReorder) Name() string { return "toplevel-reorder" }

// Run implements Pass (unused; module pass).
func (TopLevelReorder) Run(fn *ir.Func, ctx *Context) bool { return false }

// RunModule implements ModulePass.
func (p TopLevelReorder) RunModule(ctx *Context) bool {
	m := ctx.Mod
	written := map[*ir.Global]bool{}
	addressed := map[*ir.Global]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpStoreG:
					written[in.G] = true
				case ir.OpAddrG:
					addressed[in.G] = true
				}
			}
		}
	}
	// Merge identical read-only, address-free, non-volatile globals.
	merged := map[*ir.Global]*ir.Global{}
	for i, g := range m.Globals {
		if written[g] || addressed[g] || g.Volatile || merged[g] != nil {
			continue
		}
		for _, h := range m.Globals[i+1:] {
			if written[h] || addressed[h] || h.Volatile || merged[h] != nil {
				continue
			}
			if g.Size == h.Size && sameInit(g.Init, h.Init) {
				merged[h] = g
			}
		}
	}
	changed := false
	if len(merged) > 0 {
		var affectedTemps []struct {
			f *ir.Func
			t int
		}
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if (in.Op == ir.OpLoadG || in.Op == ir.OpStoreG || in.Op == ir.OpAddrG) && merged[in.G] != nil {
						in.G = merged[in.G]
						if in.Op == ir.OpLoadG && in.Dst >= 0 {
							affectedTemps = append(affectedTemps, struct {
								f *ir.Func
								t int
							}{f, in.Dst})
						}
						changed = true
						ctx.Count("toplevel-reorder.merged-refs")
					}
				}
			}
		}
		// The merged duplicates stay in the module: they are externally
		// visible objects whose (read-only) contents must survive; only the
		// references were redirected to the canonical copy.
		if ctx.Defect(bugs.GCTopLevelReorder) {
			for _, at := range affectedTemps {
				n := DropDbgUses(at.f, at.t)
				// The loaded value usually reaches debug metadata through a
				// variable's home-register copy; the defective bookkeeping
				// loses those bindings too.
				for _, b := range at.f.Blocks {
					for _, in := range b.Instrs {
						if in.Op == ir.OpCopy && in.Dst >= 0 &&
							len(in.Args) == 1 && in.Args[0].IsTemp() && in.Args[0].Temp == at.t {
							n += DropDbgUses(at.f, in.Dst)
						}
					}
				}
				if n > 0 {
					ctx.Count("toplevel-reorder.dropped-dbg")
				}
			}
		}
	}
	// Canonical layout: stable sort by size then name. Addresses shift but
	// observations are keyed by name, so behaviour is unchanged.
	before := make([]*ir.Global, len(m.Globals))
	copy(before, m.Globals)
	sort.SliceStable(m.Globals, func(i, j int) bool {
		if m.Globals[i].Size != m.Globals[j].Size {
			return m.Globals[i].Size < m.Globals[j].Size
		}
		return m.Globals[i].Name < m.Globals[j].Name
	})
	for i := range before {
		if before[i] != m.Globals[i] {
			changed = true
			ctx.Count("toplevel-reorder.reordered")
			break
		}
	}
	return changed
}

func sameInit(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
