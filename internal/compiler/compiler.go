// Package compiler is the top-level driver of the simulated toolchain. It
// models two compiler families — "gc" (gcc-like) and "cl" (clang-like) —
// with a series of releases each, per-level pass pipelines, and the defect
// registry that decides which catalogued debug-information bugs are active
// for a given (family, version) pair. The paper's experiments sweep exactly
// these dimensions.
package compiler

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/object"
	"repro/internal/opt"
)

// Family names a compiler family.
type Family string

// The two simulated families.
const (
	// GC is the gcc-like family (triaged via per-pass disable flags).
	GC Family = "gc"
	// CL is the clang-like family (triaged via pipeline bisection).
	CL Family = "cl"
)

// Versions per family, oldest first. The last entries are the special
// builds of the regression study: "patched" is gc trunk plus the fix for
// the shared-CFG-cleanup defect (the paper's 105158 patch), and "trunkstar"
// is cl trunk plus the partial LSR salvage fix (53855a).
var (
	GCVersions = []string{"v4", "v6", "v8", "v10", "trunk", "patched"}
	CLVersions = []string{"v5", "v7", "v9", "v11", "trunk", "trunkstar"}
)

// Levels per family. For cl, O1 is an alias of Og, as in the paper.
var (
	GCLevels = []string{"O0", "Og", "O1", "O2", "O3", "Os", "Oz"}
	CLLevels = []string{"O0", "Og", "O2", "O3", "Os", "Oz"}
)

// Config selects one compiler configuration.
type Config struct {
	Family  Family
	Version string
	Level   string
}

func (c Config) String() string {
	return fmt.Sprintf("%s-%s -%s", c.Family, c.Version, c.Level)
}

// VersionIndex returns the release ordinal of the configured version.
func (c Config) VersionIndex() int {
	vs := GCVersions
	if c.Family == CL {
		vs = CLVersions
	}
	for i, v := range vs {
		if v == c.Version {
			return i
		}
	}
	return -1
}

// Options tunes one compilation beyond the configuration.
type Options struct {
	// Disabled skips the named passes (gc-style -fno-<pass> triage).
	Disabled map[string]bool
	// BisectLimit stops the pipeline after N pass executions when >= 0
	// (cl-style -opt-bisect-limit triage). Use -1 for no limit.
	BisectLimit int
	// ExtraDefects adds defect mechanisms on top of the registry (tests).
	ExtraDefects map[string]bool
	// SuppressDefects removes mechanisms from the active set (tests).
	SuppressDefects map[string]bool
	// Stats receives pass and codegen counters when non-nil.
	Stats map[string]int
	// Schedule, when non-nil, replaces the configuration's canonical pass
	// schedule (ScheduleFor) for this compilation — the probe mechanism of
	// triage's schedule delta debugging. It applies even at O0, and
	// Disabled/BisectLimit apply on top of it.
	Schedule *opt.Schedule
	// Snapshots, when non-nil, lets Optimize resume from cached
	// schedule-prefix states and publish new ones (the engine's snapshot
	// tier). It is purely an execution shortcut — results are
	// byte-identical with or without it — and is ignored for
	// stats-exporting builds (Stats != nil), whose per-pass counters must
	// observe every execution.
	Snapshots SnapshotStore
}

// normalizeBisectLimit maps Options.BisectLimit's zero value to "no limit"
// exactly once, at the compiler boundary. The exported Options treats 0 as
// unset — a plain, un-bisected build — while the raw opt layer reads 0
// literally as "stop before the first pass". Every entry point (Compile,
// via CompileFrom, and Optimize directly) funnels through this helper so
// no call site re-implements the mapping.
func normalizeBisectLimit(limit int) int {
	if limit == 0 {
		return -1
	}
	return limit
}

// Result is a completed compilation.
type Result struct {
	Exe *object.Executable
	// Mod is the optimized IR (available for inspection and tests).
	Mod *ir.Module
	// PipelineExecutions is the number of pass executions performed,
	// which bounds the bisection search space.
	PipelineExecutions int
	// Applied lists the executed pass instances in order, e.g.
	// "lsr(main)"; index i corresponds to bisect limit i+1.
	Applied []string
}

// The compilation is staged so callers can cache and share the
// configuration-invariant work:
//
//   - Frontend lowers a program to IR. It depends only on the source, never
//     on the configuration, so one lowered module serves a whole
//     version × level matrix.
//   - Optimize deep-clones a lowered module and runs the configuration's
//     pass pipeline on the clone, leaving the input untouched.
//   - Codegen turns optimized IR into an executable.
//
// Compile runs all three; CompileFrom skips the frontend for callers that
// hold a lowered module already (the engine's Sweep does).

// Frontend lowers prog to IR. The result is independent of any Config, so
// it can be computed once per program and reused across configurations;
// pass it to CompileFrom, which never mutates it.
func Frontend(prog *minic.Program) (*ir.Module, error) {
	return ir.Lower(prog)
}

// Optimize runs cfg's pass schedule — o.Schedule if set, the canonical
// ScheduleFor(cfg) otherwise — on a deep clone of m under the
// configuration's active defects (adjusted by o) and returns the optimized
// clone plus the pipeline statistics. The input module is not modified.
// It fails only when an explicit schedule names an unregistered pass.
//
// With o.Snapshots set, the run may resume from a cached schedule-prefix
// state instead of entry 0 (see snapshot.go); the returned module and
// Result are byte-identical either way.
func Optimize(m *ir.Module, cfg Config, o Options) (*ir.Module, *opt.Result, error) {
	o.BisectLimit = normalizeBisectLimit(o.BisectLimit)
	if cfg.Level == "O0" && o.Schedule == nil {
		return m.Clone(), &opt.Result{}, nil
	}
	sched := ScheduleFor(cfg)
	canonical := true
	if o.Schedule != nil {
		canonical = o.Schedule.Equal(sched)
		sched = *o.Schedule
	}
	oo := opt.Options{
		Disabled:    o.Disabled,
		BisectLimit: o.BisectLimit,
		Defects:     activeDefects(cfg, o),
		Level:       cfg.Level,
		Stats:       o.Stats,
	}
	if o.Snapshots == nil || o.Stats != nil {
		clone := m.Clone()
		pr, err := opt.RunSchedule(clone, sched, oo)
		if err != nil {
			return nil, nil, err
		}
		return clone, pr, nil
	}
	if len(oo.Disabled) > 0 {
		eff := filterDisabled(sched, oo.Disabled)
		canonical = canonical && eff.Len() == sched.Len()
		sched, oo.Disabled = eff, nil
	}
	return optimizeResumable(m, cfg, sched, canonical, o.Snapshots, oo)
}

// Codegen turns optimized IR into an executable under the configuration's
// active defects (adjusted by o).
func Codegen(m *ir.Module, cfg Config, o Options) (*object.Executable, error) {
	prog2, info, err := codegen.Generate(m, codegen.Options{Defects: activeDefects(cfg, o), Stats: o.Stats})
	if err != nil {
		return nil, err
	}
	return object.New(prog2, info), nil
}

// activeDefects is the registry's defect set for cfg with the option
// overrides applied.
func activeDefects(cfg Config, o Options) map[string]bool {
	defects := ActiveDefects(cfg)
	for d := range o.ExtraDefects {
		defects[d] = true
	}
	for d := range o.SuppressDefects {
		delete(defects, d)
	}
	return defects
}

// Compile lowers, optimizes and code-generates prog under cfg.
func Compile(prog *minic.Program, cfg Config, o Options) (*Result, error) {
	o.BisectLimit = normalizeBisectLimit(o.BisectLimit)
	m, err := Frontend(prog)
	if err != nil {
		return nil, err
	}
	return CompileFrom(m, cfg, o)
}

// CompileFrom optimizes and code-generates a pre-lowered module under cfg.
// The module is cloned before the pipeline runs, so a cached frontend
// result can back any number of concurrent compilations.
func CompileFrom(m *ir.Module, cfg Config, o Options) (*Result, error) {
	if cfg.VersionIndex() < 0 {
		return nil, fmt.Errorf("compiler: unknown version %q for family %s", cfg.Version, cfg.Family)
	}
	optimized, pr, err := Optimize(m, cfg, o)
	if err != nil {
		return nil, err
	}
	res := &Result{Mod: optimized, PipelineExecutions: pr.Executions, Applied: pr.Applied}
	exe, err := Codegen(optimized, cfg, o)
	if err != nil {
		return nil, err
	}
	res.Exe = exe
	return res, nil
}

// PassNames lists the distinct pass names of cfg's pipeline, in order of
// first appearance: the flag-disable triage search space.
func PassNames(cfg Config) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range Pipeline(cfg) {
		if !seen[p.Name()] {
			seen[p.Name()] = true
			out = append(out, p.Name())
		}
	}
	return out
}
