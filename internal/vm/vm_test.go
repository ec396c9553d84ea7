package vm

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/minic"
)

func build(t *testing.T, src string) (*ir.Module, *Machine) {
	t.Helper()
	prog := minic.MustParse(src)
	m, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	asmProg, _, err := codegen.Generate(m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := New(asmProg)
	if err != nil {
		t.Fatal(err)
	}
	return m, mach
}

func TestVMMatchesInterpreter(t *testing.T) {
	srcs := []string{
		`int main(void) { int a = 6; int b = 7; return a * b; }`,
		`
int g[4];
volatile int c;
extern void opaque(int x);
int main(void) {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    g[i] = i * i;
    c = g[i];
  }
  opaque(g[3]);
  return g[2];
}`,
		`
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(10); }`,
		`
int b = 0;
int main(void) {
  int* p = &b;
  *p = 9;
  return *p + b;
}`,
	}
	for _, src := range srcs {
		m, mach := build(t, src)
		ref, err := ir.Interp(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.Run(); err != nil {
			t.Fatalf("vm: %v", err)
		}
		got, err := Observe(mach.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(got) {
			t.Errorf("vm diverges from interpreter for:\n%s\nref=%+v\ngot=%+v", src, ref, got)
		}
	}
}

func TestBreakpointsAreOneShot(t *testing.T) {
	_, mach := build(t, `
int g;
int main(void) {
  int i;
  for (i = 0; i < 3; i = i + 1) {
    g = g + i;
  }
  return g;
}`)
	// Break at the loop body's first instruction; it executes 3 times but
	// the breakpoint must fire once.
	var bodyPC = -1
	for pc, in := range mach.Prog.Instrs {
		if in.Op == 4 /* OpStoreG */ {
			bodyPC = pc
			break
		}
	}
	if bodyPC < 0 {
		t.Fatal("no global store found")
	}
	mach.SetBreak(bodyPC)
	hits := 0
	for {
		hit, err := mach.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			break
		}
		hits++
		if err := mach.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if hits != 1 {
		t.Errorf("breakpoint fired %d times, want 1 (one-shot)", hits)
	}
	if !mach.Halted || mach.Exit != 3 {
		t.Errorf("halted=%v exit=%d, want exit 3", mach.Halted, mach.Exit)
	}
}

func TestReadRegAndSlot(t *testing.T) {
	_, mach := build(t, `
int main(void) {
  int x = 41;
  x = x + 1;
  return x;
}`)
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := mach.ReadReg(1 << 20); ok {
		t.Error("out-of-range register read succeeded")
	}
	if _, ok := mach.ReadSlot(1 << 20); ok {
		t.Error("out-of-range slot read succeeded")
	}
}

func TestStepLimit(t *testing.T) {
	_, mach := build(t, `int main(void) { while (1) { } return 0; }`)
	mach.MaxStep = 500
	if err := mach.Run(); err != ErrStepLimit {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestCalleeSavedRegisters(t *testing.T) {
	// A call must not clobber the caller's registers: the frame's register
	// file is private (the callee-saved convention of the codegen model).
	_, mach := build(t, `
int f(int n) { return n * 2; }
int main(void) {
  int keep = 123;
  int r = f(4);
  return keep + r;
}`)
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if mach.Exit != 131 {
		t.Errorf("exit = %d, want 131", mach.Exit)
	}
}

func TestForEachStop(t *testing.T) {
	_, mach := build(t, `
int main(void) {
  int x = 1;
  x = x + 1;
  x = x + 1;
  return x;
}`)
	// Arm a breakpoint on every instruction; the hook must fire once per
	// armed pc in execution order, with the machine stopped on that pc.
	for pc := range mach.Prog.Instrs {
		mach.SetBreak(pc)
	}
	var stops []int
	if err := mach.ForEachStop(func() error {
		stops = append(stops, mach.PC)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !mach.Halted || mach.Exit != 3 {
		t.Fatalf("halted=%v exit=%d, want halted with exit 3", mach.Halted, mach.Exit)
	}
	if len(stops) == 0 {
		t.Fatal("no stops observed")
	}
	for i := 1; i < len(stops); i++ {
		if stops[i] == stops[i-1] {
			t.Fatalf("stop %d repeated pc %d (one-shot breakpoints must not re-fire)", i, stops[i])
		}
	}
	// An onStop error aborts the session and surfaces unchanged.
	_, mach2 := build(t, `int main(void) { return 7; }`)
	for pc := range mach2.Prog.Instrs {
		mach2.SetBreak(pc)
	}
	sentinel := fmt.Errorf("sentinel")
	if err := mach2.ForEachStop(func() error { return sentinel }); err != sentinel {
		t.Errorf("err = %v, want the sentinel error", err)
	}
}

// TestPagedMemory runs hand-assembled programs against the paged memory.
// Global g occupies [GlobalBase, GlobalBase+2), so GlobalBase+2 sits on a
// page the globals allocated, while StackBase/2 sits on a page nothing
// touches before the program runs; only a non-zero store allocates it.
func TestPagedMemory(t *testing.T) {
	mov := func(a int64) *asm.Instr { return &asm.Instr{Op: asm.OpMov, Rd: 0, Src: asm.Const(a)} }
	load := &asm.Instr{Op: asm.OpLoadPtr, Rd: 1, Src: asm.Reg(0)}
	store := func(v int64) *asm.Instr {
		return &asm.Instr{Op: asm.OpStorePtr, Rd: -1, Src: asm.Reg(0), Src2: asm.Const(v)}
	}
	ret := &asm.Instr{Op: asm.OpRet, Rd: -1, Src: asm.Reg(1)}
	free := int64(ir.StackBase / 2)
	outOfRange := func(a int64) string { return fmt.Sprintf("vm: address out of range: %d", a) }
	cases := []struct {
		name      string
		code      []*asm.Instr
		want      int64
		freePaged bool // whether free's page is allocated after the run
		wantErr   string
	}{
		{"untouched word after the globals", []*asm.Instr{mov(ir.GlobalBase + 2), load, ret}, 0, false, ""},
		{"untouched absent page", []*asm.Instr{mov(free), load, ret}, 0, false, ""},
		{"untouched word below the stack", []*asm.Instr{mov(ir.StackBase - 1), load, ret}, 0, false, ""},
		{"global initialiser", []*asm.Instr{mov(ir.GlobalBase + 1), load, ret}, 8, false, ""},
		{"store then load", []*asm.Instr{mov(free), store(42), load, ret}, 42, true, ""},
		{"zero store to an absent page", []*asm.Instr{mov(free), store(0), load, ret}, 0, false, ""},
		{"load at -1", []*asm.Instr{mov(-1), load, ret}, 0, false, outOfRange(-1)},
		{"store at -1", []*asm.Instr{mov(-1), store(1), ret}, 0, false, outOfRange(-1)},
		{"load at MemWords", []*asm.Instr{mov(ir.MemWords), load, ret}, 0, false, outOfRange(ir.MemWords)},
		{"store at MemWords", []*asm.Instr{mov(ir.MemWords), store(1), ret}, 0, false, outOfRange(ir.MemWords)},
	}
	for _, c := range cases {
		m, err := New(&asm.Program{
			Instrs:  c.code,
			Funcs:   []*asm.Func{{Name: "main", End: len(c.code), NTemp: 2, HasRet: true}},
			Globals: []*asm.Global{{Name: "g", Size: 2, Init: []int64{7, 8}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		err = m.Run()
		switch {
		case c.wantErr != "":
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case m.Exit != c.want:
			t.Errorf("%s: read %d, want %d", c.name, m.Exit, c.want)
		case (m.pages[free>>pageBits] != nil) != c.freePaged:
			t.Errorf("%s: page of %d allocated = %v, want %v", c.name, free, !c.freePaged, c.freePaged)
		}
	}
}

// TestStackOverflowIsAnError checks that unbounded recursion fails where
// the interpreter does, with an error instead of an index panic.
func TestStackOverflowIsAnError(t *testing.T) {
	prog := minic.MustParse(`
int f(int n) {
  if (n == 0) { return 0; }
  return f(n - 1) + 1;
}
int main(void) { return f(100000); }`)
	m, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Interp(m, 0); err == nil || err.Error() != "ir: stack overflow in f" {
		t.Fatalf("interpreter: err = %v, want its stack overflow", err)
	}
	res, err := compiler.Compile(prog, compiler.Config{Family: compiler.GC, Version: "trunk", Level: "O0"}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Observe(res.Exe.Prog); err == nil || err.Error() != "vm: stack overflow in f" {
		t.Fatalf("vm: err = %v, want %q", err, "vm: stack overflow in f")
	}
}
