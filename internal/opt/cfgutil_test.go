// Black-box tests for the CFG analyses in cfgutil.go. The package is
// opt_test so the pipeline-agreement test can import the compiler's pass
// pipelines without an import cycle.
package opt_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/opt"
)

func br(b, tgt *ir.Block) {
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpBr, Dst: -1, Tgts: []*ir.Block{tgt}})
}

func condbr(b *ir.Block, c ir.Value, t1, t2 *ir.Block) {
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpCondBr, Dst: -1, Args: []ir.Value{c}, Tgts: []*ir.Block{t1, t2}})
}

func ret(b *ir.Block) {
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet, Dst: -1})
}

// TestDominatorsSelfLoopAndUnreachable builds
//
//	b0: condbr t0 -> b1, b2
//	b1: condbr t0 -> b1, b3   (self-loop)
//	b2: ret
//	b3: ret
//	b4: br b1                  (unreachable, still a CFG predecessor of b1)
//
// and checks the dominator relation and the self-loop's natural loop.
func TestDominatorsSelfLoopAndUnreachable(t *testing.T) {
	f := &ir.Func{Name: "f", NTemp: 1}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()
	c := ir.TempVal(0)
	condbr(b0, c, b1, b2)
	condbr(b1, c, b1, b3)
	ret(b2)
	ret(b3)
	br(b4, b1)

	dom := opt.NewDomTree(f)
	// nDom is the size of b's dominator set: the blocks that dominate it.
	nDom := func(b *ir.Block) int {
		n := 0
		for _, a := range f.Blocks {
			if dom.Dominates(a, b) {
				n++
			}
		}
		return n
	}
	want := map[*ir.Block][]*ir.Block{
		b0: {b0},
		b1: {b0, b1},
		b2: {b0, b2},
		b3: {b0, b1, b3},
	}
	names := map[*ir.Block]string{b0: "b0", b1: "b1", b2: "b2", b3: "b3", b4: "b4"}
	for b, doms := range want {
		if n := nDom(b); n != len(doms) {
			t.Errorf("%s: dominator set size %d, want %d", names[b], n, len(doms))
		}
		for _, d := range doms {
			if !dom.Dominates(d, b) {
				t.Errorf("%s: missing dominator %s", names[b], names[d])
			}
		}
	}
	// Dominance over the unreachable block is vacuous: every block
	// dominates it.
	if n := nDom(b4); n != len(f.Blocks) {
		t.Errorf("unreachable b4 has %d dominators, want all %d blocks", n, len(f.Blocks))
	}
	// An unreachable predecessor must not leak into a reachable block's set.
	if dom.Dominates(b4, b1) {
		t.Error("b4 (unreachable) must not dominate b1")
	}

	loops := opt.FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1 (the self-loop)", len(loops))
	}
	l := loops[0]
	if l.Header != b1 || l.Latch != b1 {
		t.Errorf("self-loop header/latch = %v/%v, want b1/b1", names[l.Header], names[l.Latch])
	}
	if len(l.Blocks) != 1 || !l.Blocks[b1] {
		t.Errorf("self-loop body has %d blocks, want just b1", len(l.Blocks))
	}
	if len(l.Exits) != 1 || l.Exits[0] != b3 {
		t.Errorf("self-loop exits = %v, want [b3]", l.Exits)
	}
}

// TestFindLoopsNatural builds the canonical while-loop shape
//
//	b0: br b1
//	b1: condbr t0 -> b2, b3   (header)
//	b2: br b1                  (latch)
//	b3: ret
func TestFindLoopsNatural(t *testing.T) {
	f := &ir.Func{Name: "f", NTemp: 1}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	br(b0, b1)
	condbr(b1, ir.TempVal(0), b2, b3)
	br(b2, b1)
	ret(b3)

	loops := opt.FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != b1 {
		t.Error("loop header is not b1")
	}
	if l.Latch != b2 {
		t.Error("loop latch is not b2")
	}
	if len(l.Blocks) != 2 || !l.Blocks[b1] || !l.Blocks[b2] {
		t.Errorf("loop body wrong: %d blocks", len(l.Blocks))
	}
	if len(l.Exits) != 1 || l.Exits[0] != b3 {
		t.Errorf("loop exits wrong: %v", l.Exits)
	}
	// A straight-line function has no loops.
	g := &ir.Func{Name: "g"}
	ret(g.NewBlock())
	if got := opt.FindLoops(g); len(got) != 0 {
		t.Errorf("straight-line function reported %d loops", len(got))
	}
}

// TestCountExecutionsMatchesRunPipeline checks the bisection sizing
// contract on a module with opaque (extern) functions: the static count
// must equal the executions a full pipeline run actually performs, with
// and without disabled passes.
func TestCountExecutionsMatchesRunPipeline(t *testing.T) {
	src := `
extern void opaque(int x);
extern int chan(int x);
int helper(int a) {
  int s = 0;
  for (int i = 0; i < a; i = i + 1) {
    s = s + i;
  }
  return s;
}
int main(void) {
  int x = chan(3);
  int y = helper(x);
  opaque(y);
  return 0;
}
`
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	minic.AssignLines(prog)
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	m, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	opaque := 0
	for _, f := range m.Funcs {
		if f.Opaque {
			opaque++
		}
	}
	if opaque != 2 {
		t.Fatalf("module has %d opaque functions, want 2", opaque)
	}
	cfg := compiler.Config{Family: compiler.GC, Version: "trunk", Level: "O2"}
	passes := compiler.Pipeline(cfg)
	for _, disabled := range []map[string]bool{nil, {"inline": true, "lsr": true}} {
		want := opt.CountExecutions(m, passes, disabled)
		if want == 0 {
			t.Fatal("pipeline counts no executions; the comparison is vacuous")
		}
		pr := opt.RunPipeline(m.Clone(), passes, opt.Options{
			Disabled: disabled, BisectLimit: -1, Level: cfg.Level})
		if pr.Executions != want {
			t.Errorf("disabled=%v: RunPipeline executed %d passes, CountExecutions predicted %d",
				disabled, pr.Executions, want)
		}
		if len(pr.Applied) != pr.Executions {
			t.Errorf("Applied length %d != Executions %d", len(pr.Applied), pr.Executions)
		}
	}
}
