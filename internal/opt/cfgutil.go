package opt

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// This file provides CFG analyses shared by the passes: dominators, natural
// loop detection, and small structural helpers.

// DomTree is the dominator tree of a function's CFG. NewDomTree builds it
// with the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
// Dominance Algorithm", 2001) over slices indexed by each block's position
// in fn.Blocks, and Dominates answers from the preorder interval of each
// block's subtree, so a query is O(1) and allocation-free.
//
// Dominance over dead code is vacuous: a block unreachable from the entry
// is dominated by every block of the function and dominates no reachable
// one. A block outside the function dominates, and is dominated by,
// nothing.
type DomTree struct {
	blocks []*ir.Block
	// index maps a block ID to its position in blocks (-1: no such block).
	// IDs are unique within a function because Func.NewBlock assigns them.
	index []int32
	// The predecessors of block i are preds[predOff[i]:predOff[i+1]].
	predOff, preds []int32
	// pre is a block's preorder number on the tree (-1: unreachable) and
	// last the largest preorder number in its subtree, so a dominates a
	// reachable b exactly when pre[a] <= pre[b] <= last[a].
	pre, last []int32
}

// NewDomTree computes the dominator tree of fn.
func NewDomTree(fn *ir.Func) *DomTree {
	n := len(fn.Blocks)
	maxID := -1
	nEdges := 0
	for _, b := range fn.Blocks {
		maxID = max(maxID, b.ID)
		nEdges += len(b.Succs())
	}
	// Two allocations: one array the tree's slices are cut from, one for
	// the build's scratch slices.
	keep := make([]int32, (maxID+1)+(n+1)+nEdges+2*n)
	scratch := make([]int32, 8*n)
	take := func(buf *[]int32, k int) []int32 {
		s := (*buf)[:k:k]
		*buf = (*buf)[k:]
		return s
	}
	d := &DomTree{blocks: fn.Blocks}
	d.index = take(&keep, maxID+1)
	d.predOff = take(&keep, n+1)
	d.pre = take(&keep, n)
	d.last = take(&keep, n)
	fill(d.index, -1)
	fill(d.pre, -1)
	for i, b := range fn.Blocks {
		if b.ID < 0 || d.index[b.ID] >= 0 {
			panic(fmt.Sprintf("opt: block id %d in %s is negative or not unique", b.ID, fn.Name))
		}
		d.index[b.ID] = int32(i)
	}
	if n == 0 {
		return d
	}

	// Predecessor lists, counted then filled. Edges to blocks outside the
	// function are not part of its CFG.
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			if j := d.pos(s); j >= 0 {
				d.predOff[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		d.predOff[i+1] += d.predOff[i]
	}
	d.preds = take(&keep, int(d.predOff[n]))
	at := take(&scratch, n)
	copy(at, d.predOff[:n])
	for i, b := range fn.Blocks {
		for _, s := range b.Succs() {
			if j := d.pos(s); j >= 0 {
				d.preds[at[j]] = int32(i)
				at[j]++
			}
		}
	}

	// Postorder of the blocks reachable from the entry (position 0) by an
	// iterative DFS: po[i] is block i's postorder number, -1 if unreached.
	po := take(&scratch, n)
	order := take(&scratch, n)[:0] // blocks in postorder
	stack := take(&scratch, n)[:0]
	next := take(&scratch, n) // next successor to try; -1: undiscovered
	fill(po, -1)
	fill(next, -1)
	next[0] = 0
	stack = append(stack, 0)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		if succs := fn.Blocks[x].Succs(); int(next[x]) < len(succs) {
			s := d.pos(succs[next[x]])
			next[x]++
			if s >= 0 && next[s] < 0 {
				next[s] = 0
				stack = append(stack, s)
			}
			continue
		}
		stack = stack[:len(stack)-1]
		po[x] = int32(len(order))
		order = append(order, x)
	}
	entryLast := len(order) - 1 // the entry finishes last

	// Immediate dominators: sweep the reachable blocks in reverse
	// postorder until nothing changes, meeting each block's already
	// processed predecessors by walking up the partial tree.
	idom := take(&scratch, n)
	fill(idom, -1)
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for po[a] < po[b] {
				a = idom[a]
			}
			for po[b] < po[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for k := entryLast - 1; k >= 0; k-- {
			b := order[k]
			nd := int32(-1)
			for _, p := range d.preds[d.predOff[b]:d.predOff[b+1]] {
				switch {
				case idom[p] < 0: // unreachable, or not processed yet
				case nd < 0:
					nd = p
				default:
					nd = intersect(p, nd)
				}
			}
			if idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}

	// Number the tree in preorder. A block's dominators are its DFS
	// ancestors, so it precedes its immediate dominator in postorder:
	// subtree sizes accumulate bottom-up in postorder, then each block
	// takes the next free number in its parent's range, top-down in
	// reverse postorder.
	size := take(&scratch, n)
	free := take(&scratch, n) // next unassigned number in each block's range
	for _, b := range order {
		size[b]++
		if b != 0 {
			size[idom[b]] += size[b]
		}
	}
	d.pre[0], free[0] = 0, 1
	for k := entryLast - 1; k >= 0; k-- {
		b, p := order[k], idom[order[k]]
		d.pre[b] = free[p]
		free[p] += size[b]
		free[b] = d.pre[b] + 1
	}
	for _, b := range order {
		d.last[b] = d.pre[b] + size[b] - 1
	}
	return d
}

// pos returns b's position in the function's block list, or -1 when b is
// not one of its blocks.
func (d *DomTree) pos(b *ir.Block) int32 {
	if b == nil || b.ID < 0 || b.ID >= len(d.index) {
		return -1
	}
	if i := d.index[b.ID]; i >= 0 && d.blocks[i] == b {
		return i
	}
	return -1
}

// Dominates reports whether a dominates b: every path from the entry to b
// passes through a. Every block dominates itself.
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	i, j := d.pos(a), d.pos(b)
	switch {
	case i < 0 || j < 0:
		return false
	case d.pre[j] < 0:
		return true
	}
	return d.pre[i] >= 0 && d.pre[i] <= d.pre[j] && d.pre[j] <= d.last[i]
}

func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// Loop describes one natural loop.
type Loop struct {
	Header *ir.Block
	Latch  *ir.Block // source of the back edge
	Blocks map[*ir.Block]bool
	// Exits are blocks outside the loop that loop blocks branch to, in
	// block-list order.
	Exits []*ir.Block
}

// FindLoops detects natural loops (back edges to a dominating header).
// Loops sharing a header are merged. Only the reachable CFG is considered:
// every block dominates an unreachable one, so without the filter every
// edge out of one would read as a back edge.
func FindLoops(fn *ir.Func) []*Loop {
	return NewDomTree(fn).loops()
}

// loops is FindLoops on the function d was built from.
func (d *DomTree) loops() []*Loop {
	byHeader := map[*ir.Block]*Loop{}
	var order []*ir.Block
	var stack []int32
	for i, b := range d.blocks {
		if d.pre[i] < 0 {
			continue
		}
		for _, s := range b.Succs() {
			if !d.Dominates(s, b) { // not a back edge b -> s
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Latch: b, Blocks: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				order = append(order, s)
			}
			l.Latch = b
			// Collect the loop body: blocks that reach the latch without
			// passing through the header.
			stack = append(stack[:0], int32(i))
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[d.blocks[x]] {
					continue
				}
				l.Blocks[d.blocks[x]] = true
				for _, p := range d.preds[d.predOff[x]:d.predOff[x+1]] {
					if d.pre[p] >= 0 {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	var loops []*Loop
	for _, h := range order {
		l := byHeader[h]
		for _, b := range d.blocks {
			if !l.Blocks[b] {
				continue
			}
			for _, s := range b.Succs() {
				if !l.Blocks[s] && !slices.Contains(l.Exits, s) {
					l.Exits = append(l.Exits, s)
				}
			}
		}
		loops = append(loops, l)
	}
	return loops
}

// ReplaceSucc rewrites branches in b from old to new.
func ReplaceSucc(b *ir.Block, old, new *ir.Block) {
	t := b.Term()
	if t == nil {
		return
	}
	for i, tgt := range t.Tgts {
		if tgt == old {
			t.Tgts[i] = new
		}
	}
}

// TempUseCounts returns, for each register, how many non-debug uses it has
// in the function.
func TempUseCounts(fn *ir.Func) []int {
	uses := make([]int, fn.NTemp)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal {
				continue
			}
			for _, a := range in.Args {
				if a.IsTemp() {
					uses[a.Temp]++
				}
			}
		}
	}
	return uses
}

// DefCounts returns, for each register, how many definitions it has.
func DefCounts(fn *ir.Func) []int {
	defs := make([]int, fn.NTemp)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst >= 0 {
				defs[in.Dst]++
			}
		}
	}
	return defs
}

// RemoveUnreachable deletes blocks not reachable from the entry and returns
// whether anything was removed. Debug intrinsics in removed blocks are
// dropped: the code never executes, so no location can be valid there.
func RemoveUnreachable(fn *ir.Func) bool {
	reach := fn.Reachable()
	if len(reach) == len(fn.Blocks) {
		return false
	}
	var kept []*ir.Block
	for _, b := range fn.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	changed := len(kept) != len(fn.Blocks)
	fn.Blocks = kept
	return changed
}
