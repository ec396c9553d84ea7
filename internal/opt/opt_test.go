package opt

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/minic"
)

// allPasses is a representative aggressive pipeline used by the tests.
func allPasses() []Pass {
	return []Pass{
		Mem2Reg{},
		IPAPureConst{},
		Inline{},
		SimplifyCFG{},
		InstCombine{},
		CCP{},
		VRP{},
		SROA{},
		LoopRotate{},
		LoopUnroll{},
		IVSimplify{},
		LSR{},
		LoopDelete{},
		DSE{},
		CopyProp{},
		InstCombine{},
		CCP{},
		DCE{},
		SimplifyCFG{},
		TopLevelReorder{},
		DCE{},
	}
}

func lowerSrc(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog := minic.MustParse(src)
	m, err := ir.Lower(prog)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify O0: %v", err)
	}
	return m
}

// checkSemantics optimizes a copy of the module with the given pipeline and
// defects, verifying behaviour equivalence against the unoptimized module.
func checkSemantics(t *testing.T, m *ir.Module, passes []Pass, defects map[string]bool) *ir.Module {
	t.Helper()
	ref, err := ir.Interp(m, 0)
	if err != nil {
		t.Fatalf("reference interp: %v", err)
	}
	optMod := m.Clone()
	RunPipeline(optMod, passes, Options{BisectLimit: -1, Defects: defects})
	if err := ir.Verify(optMod); err != nil {
		t.Fatalf("optimized module fails verify: %v\n%s", err, optMod)
	}
	got, err := ir.Interp(optMod, 0)
	if err != nil {
		t.Fatalf("optimized interp: %v\n%s", err, optMod)
	}
	if !ref.Equal(got) {
		t.Fatalf("optimization changed behaviour\nref: ret=%d events=%v\ngot: ret=%d events=%v\nIR:\n%s",
			ref.Ret, ref.Events, got.Ret, got.Events, optMod)
	}
	return optMod
}

var semanticPrograms = []string{
	`
int b[10][2];
int a;
int main(void) {
  int i = 0;
  int j;
  int k;
  for (; i < 10; i = i + 1) {
    j = 0;
    k = 0;
    for (; k < 1; k = k + 1) {
      a = b[i][j * k];
    }
  }
  return a;
}`,
	`
volatile int c;
int a[2][4] = {{1, 2, 3, 4}, {5, 6, 7, 8}};
int main(void) {
  int i;
  int j;
  for (i = 0; i < 2; i = i + 1) {
    for (j = 0; j < 4; j = j + 1) {
      c = a[i][j];
    }
  }
  return 0;
}`,
	`
extern void opaque(int a, int b, int c);
short a = 4;
void b(int c) {
  short v1 = 0;
  int v2;
  int v3 = 2;
  int v7 = (v2 = a) == 0 & c;
  opaque(v1, v2, v7);
}
int main(void) {
  b(a);
  a = 0;
  return 0;
}`,
	`
int b = 0;
int a;
void foo(int* d) { a = 0; }
int main(void) {
  int* v1 = &b;
  int** v2 = &v1;
f: if (a) {
    goto f;
  }
  *v2 = v1;
  foo(*v2);
  return 0;
}`,
	`
int zero(void) { return 0; }
int g;
int main(void) {
  int x = zero() + 3;
  g = x * 2;
  return g;
}`,
	`
extern void opaque(int x);
int main(void) {
  int j;
  for (j = 0; j < 1; j = j + 1) {
    opaque(j);
  }
  return 0;
}`,
	`
int g;
int main(void) {
  int t = 0;
  int i;
  for (i = 0; i < 4; i = i + 1) {
    t = t + i;
  }
  g = t;
  return t;
}`,
	`
int x = 5;
int y = 5;
int g;
int main(void) {
  g = x + y;
  return g;
}`,
	`
int g;
int main(void) {
  int dead1 = 11;
  int dead2 = dead1 * 3;
  g = 1;
  g = 2;
  return g + dead2 - dead2;
}`,
	`
unsigned short b[4] = {1, 2, 3, 4};
volatile int c;
int main(void) {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    c = b[i];
  }
  return 0;
}`,
}

func TestPipelinePreservesSemantics(t *testing.T) {
	for i, src := range semanticPrograms {
		m := lowerSrc(t, src)
		checkSemantics(t, m, allPasses(), nil)
		_ = i
	}
}

func TestPipelinePreservesSemanticsWithAllDefects(t *testing.T) {
	// Debug-information defects must never change run-time behaviour.
	defects := map[string]bool{}
	for _, sys := range []bugs.System{bugs.SysClang, bugs.SysGCC} {
		for _, mech := range bugs.MechanismsFor(sys) {
			defects[mech] = true
		}
	}
	for _, src := range semanticPrograms {
		m := lowerSrc(t, src)
		checkSemantics(t, m, allPasses(), defects)
	}
}

func TestEachPassIndividuallyPreservesSemantics(t *testing.T) {
	for _, p := range allPasses() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for _, src := range semanticPrograms {
				m := lowerSrc(t, src)
				checkSemantics(t, m, []Pass{Mem2Reg{}, p}, nil)
			}
		})
	}
}

func countDbgVals(m *ir.Module, fn string) (total, undef int) {
	f := m.Func(fn)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal {
				total++
				if in.Args[0].Kind == ir.Undef {
					undef++
				}
			}
		}
	}
	return
}

func TestMem2RegPromotes(t *testing.T) {
	m := lowerSrc(t, `
int g;
int main(void) {
  int x = 3;
  int y = x + 4;
  g = y;
  return y;
}`)
	RunPipeline(m, []Pass{Mem2Reg{}}, Options{BisectLimit: -1})
	f := m.Func("main")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoadSlot || in.Op == ir.OpStoreSlot {
				t.Fatalf("slot op survived mem2reg: %v", in)
			}
			if in.Op == ir.OpDbgVal && in.Args[0].Kind == ir.SlotRef {
				t.Fatalf("slot-ref dbgval survived mem2reg: %v", in)
			}
		}
	}
	total, _ := countDbgVals(m, "main")
	if total < 2 {
		t.Errorf("expected per-store dbgvals, got %d", total)
	}
}

func TestCCPFoldsAndPreservesDebug(t *testing.T) {
	src := `
int g;
int main(void) {
  int x = 2 + 3;
  g = x;
  return g;
}`
	// Without the defect: x's dbgval becomes the constant 5.
	m := lowerSrc(t, src)
	RunPipeline(m, []Pass{Mem2Reg{}, InstCombine{}, CCP{}, CopyProp{}, DCE{}}, Options{BisectLimit: -1})
	foundConst := false
	for _, b := range m.Func("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal && in.V.Name == "x" && in.Args[0].IsConst() && in.Args[0].C == 5 {
				foundConst = true
			}
		}
	}
	if !foundConst {
		t.Errorf("x's debug value should be the constant 5:\n%s", m)
	}
	// The no-const-value defect is loop-scoped (105161's shape): a fold in
	// straight-line code keeps its constant even under the defect...
	m2 := lowerSrc(t, src)
	RunPipeline(m2, []Pass{Mem2Reg{}, InstCombine{}, CCP{}, CopyProp{}, DCE{}},
		Options{BisectLimit: -1, Defects: map[string]bool{bugs.GCCCPNoConstValue: true}})
	straightOK := false
	for _, b := range m2.Func("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal && in.V.Name == "x" && in.Args[0].IsConst() {
				straightOK = true
			}
		}
	}
	if !straightOK {
		t.Error("straight-line fold should keep its constant under the loop-scoped defect")
	}
	// ...while a fold inside a loop loses it.
	loopSrc := `
volatile int g;
int main(void) {
  int i;
  for (i = 0; i < 3; i = i + 1) {
    int x = 2 + 3;
    g = x + i;
  }
  return 0;
}`
	m3 := lowerSrc(t, loopSrc)
	stats := map[string]int{}
	RunPipeline(m3, []Pass{Mem2Reg{}, InstCombine{}, CCP{}},
		Options{BisectLimit: -1, Stats: stats,
			Defects: map[string]bool{bugs.GCCCPNoConstValue: true}})
	if stats["ccp.dropped-const"] == 0 {
		t.Errorf("loop-context fold should drop the constant under the defect:\n%s", m3.Func("main"))
	}
}

func TestSimplifyCFGDefectDropsDbg(t *testing.T) {
	src := `
int g;
int main(void) {
  int x = 1;
  if (g) {
    x = 2;
  }
  g = 3;
  return 0;
}`
	clean := lowerSrc(t, src)
	RunPipeline(clean, []Pass{Mem2Reg{}, SimplifyCFG{}}, Options{BisectLimit: -1})
	cleanTotal, _ := countDbgVals(clean, "main")
	buggy := lowerSrc(t, src)
	RunPipeline(buggy, []Pass{Mem2Reg{}, SimplifyCFG{}},
		Options{BisectLimit: -1, Defects: map[string]bool{bugs.CLSimplifyCFGDrop: true}})
	buggyTotal, _ := countDbgVals(buggy, "main")
	if buggyTotal > cleanTotal {
		t.Errorf("defect should not add dbgvals: clean=%d buggy=%d", cleanTotal, buggyTotal)
	}
}

func TestInlinePlacesInlineSites(t *testing.T) {
	m := lowerSrc(t, `
int g;
int add1(int v) { return v + 1; }
int main(void) {
  g = add1(41);
  return g;
}`)
	RunPipeline(m, []Pass{Mem2Reg{}, Inline{}}, Options{BisectLimit: -1})
	f := m.Func("main")
	foundInlined := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Call == "add1" {
				t.Fatalf("call to add1 not inlined")
			}
			if in.At != nil && in.At.Callee == "add1" {
				foundInlined = true
			}
		}
	}
	if !foundInlined {
		t.Error("no instructions carry the inline site")
	}
	foundVar := false
	for _, v := range f.Vars {
		if v.Inlined != nil && v.Name == "v" {
			foundVar = true
		}
	}
	if !foundVar {
		t.Error("inlined variable v not imported")
	}
	// Semantics preserved.
	obs, err := ir.Interp(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Ret != 42 {
		t.Errorf("ret = %d, want 42", obs.Ret)
	}
}

func TestLoopUnrollSmallTripCount(t *testing.T) {
	m := lowerSrc(t, `
int g;
int main(void) {
  int k;
  int acc = 0;
  for (k = 0; k < 3; k = k + 1) {
    acc = acc + k;
  }
  g = acc;
  return acc;
}`)
	stats := map[string]int{}
	RunPipeline(m, []Pass{Mem2Reg{}, LoopUnroll{}}, Options{BisectLimit: -1, Stats: stats})
	if stats["loopunroll.unrolled"] == 0 {
		t.Fatalf("loop not unrolled:\n%s", m)
	}
	obs, err := ir.Interp(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Ret != 3 {
		t.Errorf("ret = %d, want 3", obs.Ret)
	}
	if len(FindLoops(m.Func("main"))) != 0 {
		t.Error("loop structure still present after full unroll")
	}
}

func TestLSRReducesAndDefectDropsIV(t *testing.T) {
	src := `
volatile int c;
int b[12];
int main(void) {
  int i;
  for (i = 0; i < 6; i = i + 1) {
    c = b[i * 2];
  }
  return 0;
}`
	m := lowerSrc(t, src)
	stats := map[string]int{}
	RunPipeline(m, []Pass{Mem2Reg{}, LSR{}}, Options{BisectLimit: -1, Stats: stats})
	if stats["lsr.reduced"] == 0 {
		t.Fatalf("lsr did not fire:\n%s", m.Func("main"))
	}
	_, undef := countDbgVals(m, "main")
	if undef != 0 {
		t.Errorf("correct LSR dropped %d dbgvals", undef)
	}
	m2 := lowerSrc(t, src)
	RunPipeline(m2, []Pass{Mem2Reg{}, LSR{}},
		Options{BisectLimit: -1, Defects: map[string]bool{bugs.CLLSRNoSalvage: true}})
	_, undef2 := countDbgVals(m2, "main")
	if undef2 == 0 {
		t.Error("defective LSR should drop IV dbgvals in the loop")
	}
}

func TestLoopDeleteRecordsFinalIV(t *testing.T) {
	src := `
int main(void) {
  int i;
  int waste = 0;
  for (i = 0; i < 5; i = i + 1) {
    waste = waste + 1;
  }
  return 0;
}`
	m := lowerSrc(t, src)
	stats := map[string]int{}
	RunPipeline(m, []Pass{Mem2Reg{}, DCE{}, LoopDelete{}}, Options{BisectLimit: -1, Stats: stats})
	if stats["loopdelete.deleted"] == 0 {
		t.Skipf("loop not deletable in this configuration:\n%s", m.Func("main"))
	}
	final := false
	for _, b := range m.Func("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal && in.V.Name == "i" && in.Args[0].IsConst() && in.Args[0].C == 5 {
				final = true
			}
		}
	}
	if !final {
		t.Errorf("final IV value not recorded at exit:\n%s", m.Func("main"))
	}
}

func TestIPAPureConstFoldsConstantReturns(t *testing.T) {
	src := `
int zero(void) { return 0; }
int g;
int main(void) {
  int x = zero();
  g = x + 1;
  return g;
}`
	m := lowerSrc(t, src)
	stats := map[string]int{}
	RunPipeline(m, []Pass{Mem2Reg{}, IPAPureConst{}}, Options{BisectLimit: -1, Stats: stats})
	if stats["ipa-pure-const.folded-calls"] == 0 {
		t.Fatalf("constant-returning call not folded:\n%s", m.Func("main"))
	}
	if !m.Func("zero").Pure {
		t.Error("zero not marked pure")
	}
}

func TestBisectLimitStopsPipeline(t *testing.T) {
	m := lowerSrc(t, semanticPrograms[0])
	full := RunPipeline(m.Clone(), allPasses(), Options{BisectLimit: -1})
	if full.Executions < 5 {
		t.Fatalf("pipeline too short to test bisection: %d", full.Executions)
	}
	half := RunPipeline(m.Clone(), allPasses(), Options{BisectLimit: full.Executions / 2})
	if half.Executions != full.Executions/2 {
		t.Errorf("bisect stopped at %d, want %d", half.Executions, full.Executions/2)
	}
}

func TestDisabledPassSkipped(t *testing.T) {
	m := lowerSrc(t, semanticPrograms[0])
	res := RunPipeline(m, allPasses(), Options{BisectLimit: -1,
		Disabled: map[string]bool{"lsr": true, "inline": true}})
	for _, name := range res.Applied {
		if name == "lsr(main)" || name == "inline" {
			t.Errorf("disabled pass executed: %s", name)
		}
	}
}

func TestSROAPromotesNonEscaping(t *testing.T) {
	src := `
int g;
int main(void) {
  int x = 1;
  int* p = &x;
  *p = 5;
  g = *p;
  return g;
}`
	m := lowerSrc(t, src)
	stats := map[string]int{}
	RunPipeline(m, []Pass{Mem2Reg{}, CopyProp{}, SROA{}}, Options{BisectLimit: -1, Stats: stats})
	obs, err := ir.Interp(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Ret != 5 {
		t.Errorf("ret = %d, want 5", obs.Ret)
	}
}

func TestDominatorsAndLoops(t *testing.T) {
	m := lowerSrc(t, `
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 3; i = i + 1) {
    s = s + i;
  }
  return s;
}`)
	f := m.Func("main")
	dom := NewDomTree(f)
	entry := f.Entry()
	for _, b := range f.Blocks {
		if !dom.Dominates(entry, b) {
			t.Errorf("entry does not dominate b%d", b.ID)
		}
	}
	loops := FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	if len(loops[0].Exits) != 1 {
		t.Errorf("loop exits = %d, want 1", len(loops[0].Exits))
	}
}

func TestTopLevelReorderMergesGlobals(t *testing.T) {
	src := `
int x = 7;
int y = 7;
int g;
int main(void) {
  g = x + y;
  return g;
}`
	m := lowerSrc(t, src)
	stats := map[string]int{}
	RunPipeline(m, []Pass{Mem2Reg{}, TopLevelReorder{}}, Options{BisectLimit: -1, Stats: stats})
	if stats["toplevel-reorder.merged-refs"] == 0 {
		t.Error("identical read-only globals not merged")
	}
	obs, err := ir.Interp(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Ret != 14 {
		t.Errorf("ret = %d, want 14", obs.Ret)
	}
}
