package debugger

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compiler"
	"repro/internal/minic"
	"repro/internal/object"
	"repro/internal/vm"
)

// legacyRecord is the pre-Recorder monolithic loop, kept verbatim as the
// reference implementation for the equivalence contract: one VM pass per
// (binary, debugger), with a full DWARF walk at every stop via Inspect.
func legacyRecord(t *testing.T, exe *object.Executable, dbg Debugger) *Trace {
	t.Helper()
	info, err := exe.DebugInfo()
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Stops: map[int]*Stop{}, Steppable: info.SteppableLines(), NLines: info.NLines}
	m, err := vm.New(exe.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range info.Lines {
		m.SetBreak(int(e.PC))
	}
	for {
		hit, err := m.Continue()
		if err != nil {
			t.Fatalf("legacy record: execution failed: %v", err)
		}
		if !hit {
			break
		}
		line := info.PCToLine(uint32(m.PC))
		if line == 0 || tr.Stops[line] != nil {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		stop, err := dbg.Inspect(exe, m)
		if err != nil {
			t.Fatal(err)
		}
		tr.Stops[line] = stop
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// goldenSources loads the checked-in golden-corpus programs (the same
// fixtures the serving layer pins byte-for-byte).
func goldenSources(t *testing.T) map[string]*minic.Program {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden corpus sources found")
	}
	out := map[string]*minic.Program{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minic.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		minic.AssignLines(prog)
		if err := minic.Check(prog); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = prog
	}
	return out
}

// fullGrid returns every (family, version, level) configuration.
func fullGrid() []compiler.Config {
	var out []compiler.Config
	for _, fam := range []compiler.Family{compiler.GC, compiler.CL} {
		versions, levels := compiler.GCVersions, compiler.GCLevels
		if fam == compiler.CL {
			versions, levels = compiler.CLVersions, compiler.CLLevels
		}
		for _, v := range versions {
			for _, l := range levels {
				out = append(out, compiler.Config{Family: fam, Version: v, Level: l})
			}
		}
	}
	return out
}

// TestRecorderMatchesLegacyRecord pins the refactor's equivalence
// contract: for every golden-corpus program across the full version ×
// level grid of both families, the single-pass Recorder produces traces
// deep-equal to the legacy one-engine-per-execution loop, for both
// debugger engines — from ONE execution instead of two.
func TestRecorderMatchesLegacyRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid equivalence sweep skipped in -short mode")
	}
	progs := goldenSources(t)
	grid := fullGrid()
	gdb := NewGDB(compiler.DebuggerDefects("gdb"))
	lldb := NewLLDB(compiler.DebuggerDefects("lldb"))
	for name, prog := range progs {
		name, prog := name, prog
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range grid {
				res, err := compiler.Compile(prog, cfg, compiler.Options{})
				if err != nil {
					t.Fatalf("%v: %v", cfg, err)
				}
				wantG := legacyRecord(t, res.Exe, gdb)
				wantL := legacyRecord(t, res.Exe, lldb)
				rec, err := NewRecorder(res.Exe, RecordOpts{}, gdb, lldb)
				if err != nil {
					t.Fatalf("%v: %v", cfg, err)
				}
				mt, err := rec.Run()
				if err != nil {
					t.Fatalf("%v: %v", cfg, err)
				}
				if !reflect.DeepEqual(mt.View("gdb"), wantG) {
					t.Errorf("%v: gdb view diverges from legacy record", cfg)
				}
				if !reflect.DeepEqual(mt.View("lldb"), wantL) {
					t.Errorf("%v: lldb view diverges from legacy record", cfg)
				}
				// Record (the compat API) must be the recorder's view too.
				single, err := Record(res.Exe, gdb)
				if err != nil {
					t.Fatalf("%v: %v", cfg, err)
				}
				if !reflect.DeepEqual(single, wantG) {
					t.Errorf("%v: Record diverges from legacy record", cfg)
				}
			}
		})
	}
}

// TestMultiTraceViewIndependence asserts that the per-engine views of one
// recording share no mutable state: mutating everything reachable from
// one view — its stops, variables, steppable set — must leave the other
// view untouched, and mutating one engine's defect set after the session
// must not reach into either recorded view.
func TestMultiTraceViewIndependence(t *testing.T) {
	prog := minic.MustParse(`
int g;
extern void opaque(int x);
int add3(int p, int q, int r) { return p + q + r; }
int main(void) {
  int x = 4;
  g = add3(x, 2, 3);
  opaque(g);
  return 0;
}`)
	res, err := compiler.Compile(prog, compiler.Config{
		Family: compiler.GC, Version: "trunk", Level: "O2"}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gdbDefects := map[string]bool{bugs.GDBEmptyRange: true, bugs.GDBConcreteMismatch: true}
	rec, err := NewRecorder(res.Exe, RecordOpts{}, NewGDB(gdbDefects), NewLLDB(compiler.DebuggerDefects("lldb")))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := rec.Run()
	if err != nil {
		t.Fatal(err)
	}
	gdbView, lldbView := mt.View("gdb"), mt.View("lldb")
	if gdbView == nil || lldbView == nil {
		t.Fatalf("missing view: engines %v", mt.Engines)
	}
	if gdbView == lldbView {
		t.Fatal("views alias the same Trace")
	}
	baseline := legacyRecord(t, res.Exe, NewLLDB(compiler.DebuggerDefects("lldb")))

	// Vandalize the gdb view in place.
	for line, s := range gdbView.Stops {
		s.Line = -1
		s.Frame = "clobbered"
		for i := range s.Vars {
			s.Vars[i] = Variable{Name: "clobbered", State: Available, Value: -42}
		}
		delete(gdbView.Stops, line)
	}
	for l := range gdbView.Steppable {
		gdbView.Steppable[l] = false
	}
	gdbView.NLines = -1
	// Flip the gdb engine's defect set after the fact.
	gdbDefects[bugs.GDBEmptyRange] = false
	gdbDefects[bugs.GDBConcreteMismatch] = false

	if !reflect.DeepEqual(lldbView, baseline) {
		t.Error("mutating the gdb view (and its defect set) leaked into the lldb view")
	}
}

// TestRecorderRequiresAnEngine covers the degenerate constructor call.
func TestRecorderRequiresAnEngine(t *testing.T) {
	exe := compileAt(t, traceSrc, "O0")
	if _, err := NewRecorder(exe, RecordOpts{}); err == nil {
		t.Fatal("expected error for a recorder with no engines")
	}
}

// TestStopVarIndexedLookup exercises the map-backed Var lookup on a stop
// with many variables, including the stale-index fallback after a caller
// mutates Vars directly.
func TestStopVarIndexedLookup(t *testing.T) {
	s := &Stop{}
	for i := 0; i < varIndexMin+4; i++ {
		s.Vars = append(s.Vars, Variable{Name: fmt.Sprintf("v%02d", i), State: Available, Value: int64(i)})
	}
	s.index()
	if s.byName == nil {
		t.Fatalf("no index built for %d variables", len(s.Vars))
	}
	for i, want := range s.Vars {
		if got := s.Var(want.Name); got != want {
			t.Errorf("Var(%q) = %+v, want %+v (i=%d)", want.Name, got, want, i)
		}
	}
	if got := s.Var("nosuch"); got.State != NotVisible {
		t.Errorf("missing variable state = %v, want NotVisible", got.State)
	}
	// A caller that appends after recording must still get correct answers
	// through the linear-scan fallback.
	s.Vars = append(s.Vars, Variable{Name: "late", State: OptimizedOut})
	if got := s.Var("late"); got.State != OptimizedOut {
		t.Errorf("appended variable state = %v, want OptimizedOut", got.State)
	}
	// Duplicate names resolve to the first occurrence, like the scan.
	dup := &Stop{}
	for i := 0; i < varIndexMin; i++ {
		dup.Vars = append(dup.Vars, Variable{Name: "same", Value: int64(i)})
	}
	dup.index()
	if got := dup.Var("same"); got.Value != 0 {
		t.Errorf("duplicate name resolved to value %d, want 0 (first occurrence)", got.Value)
	}
}

// BenchmarkRecorderTwoEnginesVsTwoRecords quantifies the tentpole at the
// session layer: both engine views from one execution versus the legacy
// two-execution pattern, on a fixed optimized binary.
func BenchmarkRecorderTwoEnginesVsTwoRecords(b *testing.B) {
	prog := minic.MustParse(traceSrc)
	res, err := compiler.Compile(prog, compiler.Config{
		Family: compiler.GC, Version: "trunk", Level: "O2"}, compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	gdb := NewGDB(compiler.DebuggerDefects("gdb"))
	lldb := NewLLDB(compiler.DebuggerDefects("lldb"))
	b.Run("single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, err := NewRecorder(res.Exe, RecordOpts{}, gdb, lldb)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rec.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Record(res.Exe, gdb); err != nil {
				b.Fatal(err)
			}
			if _, err := Record(res.Exe, lldb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecord is one recording session of a fixed optimized binary
// under one engine. Its B/op includes the VM's memory, which is paged, so
// an execution pays only for the words it touches.
func BenchmarkRecord(b *testing.B) {
	prog := minic.MustParse(traceSrc)
	res, err := compiler.Compile(prog, compiler.Config{
		Family: compiler.GC, Version: "trunk", Level: "O2"}, compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	gdb := NewGDB(compiler.DebuggerDefects("gdb"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := NewRecorder(res.Exe, RecordOpts{}, gdb)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rec.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
