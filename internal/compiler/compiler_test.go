package compiler

import (
	"testing"
	"time"

	"repro/internal/debugger"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/vm"
)

var testPrograms = []string{
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
extern void opaque(int a, int b, int c);
short a = 4;
void b(int c) {
  short v1 = 0;
  int v2;
  int v7 = (v2 = a) == 0 & c;
  opaque(v1, v2, v7);
}
int main(void) {
  b(a);
  a = 0;
  return 0;
}`,
	`
volatile int c;
int arr[2][4] = {{1, 2, 3, 4}, {5, 6, 7, 8}};
unsigned short b2[4] = {1, 2, 3, 4};
int main(void) {
  int i;
  int j;
  for (i = 0; i < 2; i = i + 1) {
    for (j = 0; j < 4; j = j + 1) {
      c = arr[i][j];
    }
  }
  for (i = 0; i < 4; i = i + 1) {
    c = b2[i];
  }
  return 0;
}`,
	`
int zero(void) { return 0; }
int g;
extern void opaque(int x);
int main(void) {
  int x = zero() + 3;
  g = x * 2;
  opaque(x);
  return g;
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
}

func allConfigs() []Config {
	var out []Config
	for _, v := range GCVersions {
		for _, l := range GCLevels {
			out = append(out, Config{Family: GC, Version: v, Level: l})
		}
	}
	for _, v := range CLVersions {
		for _, l := range CLLevels {
			out = append(out, Config{Family: CL, Version: v, Level: l})
		}
	}
	return out
}

// TestCompileBehaviourEquivalence is the cornerstone differential test:
// every configuration's generated code must behave exactly like the
// unoptimized IR, defects and all.
func TestCompileBehaviourEquivalence(t *testing.T) {
	for pi, src := range testPrograms {
		prog := minic.MustParse(src)
		m0, err := ir.Lower(prog)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ir.Interp(m0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range allConfigs() {
			res, err := Compile(prog, cfg, Options{})
			if err != nil {
				t.Fatalf("program %d %s: compile: %v", pi, cfg, err)
			}
			if err := ir.Verify(res.Mod); err != nil {
				t.Fatalf("program %d %s: verify: %v", pi, cfg, err)
			}
			got, err := vm.Observe(res.Exe.Prog)
			if err != nil {
				t.Fatalf("program %d %s: vm: %v\n%s", pi, cfg, err, res.Exe.Prog)
			}
			if !ref.Equal(got) {
				t.Fatalf("program %d %s: behaviour differs\nref ret=%d ev=%v\ngot ret=%d ev=%v\nasm:\n%s",
					pi, cfg, ref.Ret, ref.Events, got.Ret, got.Events, res.Exe.Prog)
			}
		}
	}
}

// TestRecursiveCalleeCompilesEverywhere compiles a self-recursive callee
// under every configuration of both families within a deadline: the
// inliner must leave recursive callees alone instead of inlining copies of
// them without end. Every build must still compute fib(10).
func TestRecursiveCalleeCompilesEverywhere(t *testing.T) {
	prog := minic.MustParse(`
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(10); }`)
	type built struct {
		cfg Config
		res *Result
		err error
	}
	cfgs := allConfigs()
	out := make(chan built, len(cfgs)) // one slot per send: the sender never blocks
	go func() {
		for _, cfg := range cfgs {
			res, err := Compile(prog, cfg, Options{})
			out <- built{cfg, res, err}
		}
		close(out)
	}()
	deadline := time.After(30 * time.Second)
	for n := 0; ; n++ {
		select {
		case b, ok := <-out:
			if !ok {
				return
			}
			if b.err != nil {
				t.Fatalf("%s: %v", b.cfg, b.err)
			}
			obs, err := vm.Observe(b.res.Exe.Prog)
			if err != nil {
				t.Fatalf("%s: %v", b.cfg, err)
			}
			if obs.Ret != 55 {
				t.Errorf("%s: fib(10) = %d, want 55", b.cfg, obs.Ret)
			}
		case <-deadline:
			t.Fatalf("compiled %d of %d configurations before the deadline", n, len(cfgs))
		}
	}
}

// TestO0FullAvailability: the unoptimized build is the paper's reference:
// every declared variable must be available on every stepped line after its
// declaration.
func TestO0FullAvailability(t *testing.T) {
	prog := minic.MustParse(testPrograms[0])
	res, err := Compile(prog, Config{Family: GC, Version: "trunk", Level: "O0"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gdb := debugger.NewGDB(DebuggerDefects("gdb"))
	trace, err := debugger.Record(res.Exe, gdb)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Stops) == 0 {
		t.Fatal("no lines stepped at O0")
	}
	// Variables i, j, k are declared on lines 4-6 of the canonical layout;
	// at the innermost store line all three must be available.
	var storeLine int
	for l, s := range trace.Stops {
		if s.Frame == "main" && s.Var("k").State != debugger.NotVisible &&
			s.Var("j").State != debugger.NotVisible && l > storeLine {
			storeLine = l
		}
	}
	if storeLine == 0 {
		t.Fatalf("no line with j and k visible; trace: %v", trace.Stops)
	}
	s := trace.Stops[storeLine]
	for _, name := range []string{"i", "j", "k"} {
		if v := s.Var(name); v.State != debugger.Available {
			t.Errorf("O0: %s not available at line %d: %v", name, storeLine, v.State)
		}
	}
}

// TestOptimizedTraceRuns exercises trace recording across optimized
// configurations and both debuggers.
func TestOptimizedTraceRuns(t *testing.T) {
	prog := minic.MustParse(testPrograms[1])
	for _, cfg := range []Config{
		{GC, "trunk", "O2"}, {GC, "patched", "Og"},
		{CL, "trunk", "O3"}, {CL, "trunkstar", "Os"},
	} {
		res, err := Compile(prog, cfg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		for _, dbg := range []debugger.Debugger{
			debugger.NewGDB(DebuggerDefects("gdb")),
			debugger.NewLLDB(DebuggerDefects("lldb")),
		} {
			trace, err := debugger.Record(res.Exe, dbg)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg, dbg.Name(), err)
			}
			if len(trace.Stops) == 0 {
				t.Errorf("%s %s: empty trace", cfg, dbg.Name())
			}
		}
	}
}

// TestLineCoverageOgBeatsO3: the debugger-friendly level must preserve at
// least as many steppable lines as the aggressive one (Figure 1's shape).
func TestLineCoverageShape(t *testing.T) {
	prog := minic.MustParse(testPrograms[2])
	count := func(level string) int {
		res, err := Compile(prog, Config{Family: GC, Version: "trunk", Level: level}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		info, err := res.Exe.DebugInfo()
		if err != nil {
			t.Fatal(err)
		}
		return len(info.SteppableLines())
	}
	o0, og, o3 := count("O0"), count("Og"), count("O3")
	if og > o0 {
		t.Errorf("Og lines (%d) exceed O0 (%d)", og, o0)
	}
	if o3 > og {
		t.Errorf("O3 lines (%d) exceed Og (%d)", o3, og)
	}
}

func TestBisectAndDisableKnobs(t *testing.T) {
	prog := minic.MustParse(testPrograms[0])
	cfg := Config{Family: CL, Version: "trunk", Level: "O2"}
	full, err := Compile(prog, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := full.PipelineExecutions
	if n < 5 {
		t.Fatalf("pipeline too short: %d", n)
	}
	res, err := Compile(prog, cfg, Options{BisectLimit: n / 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.PipelineExecutions != n/2 {
		t.Errorf("bisect executed %d, want %d", res.PipelineExecutions, n/2)
	}
	// Disabling a pass keeps compilation working.
	if _, err := Compile(prog, cfg, Options{Disabled: map[string]bool{"lsr": true}}); err != nil {
		t.Fatal(err)
	}
}

func TestActiveDefectsVersionGating(t *testing.T) {
	oldGC := ActiveDefects(Config{Family: GC, Version: "v4", Level: "O2"})
	trunkGC := ActiveDefects(Config{Family: GC, Version: "trunk", Level: "O2"})
	patched := ActiveDefects(Config{Family: GC, Version: "patched", Level: "O2"})
	if !trunkGC["gc-cleanupcfg-drop"] {
		t.Error("trunk should carry the cleanup-cfg defect")
	}
	if patched["gc-cleanupcfg-drop"] {
		t.Error("patched must fix the cleanup-cfg defect")
	}
	if !oldGC["legacy-weak-tracking"] || trunkGC["legacy-weak-tracking"] {
		t.Error("legacy tracking gating wrong")
	}
	if oldGC["gc-vrp-drop"] {
		t.Error("EVRP defect should not exist before v8")
	}
	star := ActiveDefects(Config{Family: CL, Version: "trunkstar", Level: "O2"})
	if star["cl-lsr-nosalvage"] {
		t.Error("trunkstar must fix the LSR salvage defect")
	}
	if !star["cl-lsr-nosalvage-size"] {
		t.Error("trunkstar keeps the size-level LSR residue")
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{Family: GC, Version: "v8", Level: "O2"}
	if cfg.VersionIndex() != 2 {
		t.Errorf("VersionIndex = %d, want 2", cfg.VersionIndex())
	}
	if NativeDebugger(GC) != "gdb" || NativeDebugger(CL) != "lldb" {
		t.Error("native debugger mapping wrong")
	}
	if (Config{Family: GC, Version: "nope", Level: "O2"}).VersionIndex() != -1 {
		t.Error("unknown version should yield -1")
	}
	names := PassNames(Config{Family: CL, Version: "trunk", Level: "O2"})
	if len(names) < 8 {
		t.Errorf("too few pass names: %v", names)
	}
}
