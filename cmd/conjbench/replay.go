package main

import (
	"fmt"

	"repro"
	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/conjecture"
	"repro/internal/debugger"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/object"
	"repro/internal/reduce"
	"repro/internal/triage"
	"repro/internal/vm"
)

// The traced run attributes time by replaying each engine op through the
// layers' own public functions, one call per span, on one goroutine. The
// replay keeps the engine's caching decisions — frontend once per source,
// plain builds cached by (source, config, schedule), optimizer snapshots
// under the engine's key base — so it performs the same builds the engine
// does; the traced run checks that against the engine's counters.

// work counts what a replay did.
type work struct {
	passCost    int64 // pass executions of the builds run, snapshot-skipped ones included
	recordings  int64 // Recorder sessions of the sweep path (the engine's Traces)
	executions  int64 // VM executions, probe runs inside triage and reduce included
	violations  int64
	triages     int64
	untriaged   int64
	triageProbe int64
	schedProbe  int64
	candidates  int64
	accepted    int64
}

// replayer runs ops layer by layer with a span around every call.
type replayer struct {
	tr   *tracer
	fn   *compiler.MemFnCache
	mods map[string]*ir.Module
	// builds holds plain builds like the engine's compile tier; snaps the
	// optimizer's prefix snapshots.
	builds map[string]*compiler.Result
	snaps  map[string]*compiler.Snapshot
	facts  map[*minic.Program]*analysis.Facts
	dbgs   map[compiler.Family][2]debugger.Debugger // native, cross-validation
	w      work
}

func newReplayer(tr *tracer) *replayer {
	r := &replayer{tr: tr, dbgs: map[compiler.Family][2]debugger.Debugger{}}
	for _, f := range []compiler.Family{compiler.GC, compiler.CL} {
		native := pokeholes.NativeDebugger(f)
		other := "gdb"
		if native.Name() == "gdb" {
			other = "lldb"
		}
		cross, err := pokeholes.DebuggerByName(other)
		if err != nil {
			panic(err) // both names are built in
		}
		r.dbgs[f] = [2]debugger.Debugger{&countingDebugger{Inspector: native.(debugger.Inspector), w: &r.w}, cross}
	}
	r.reset()
	return r
}

// reset drops every cached artifact, as a fresh engine would have none.
func (r *replayer) reset() {
	r.fn = compiler.NewMemFnCache()
	r.mods = map[string]*ir.Module{}
	r.builds = map[string]*compiler.Result{}
	r.snaps = map[string]*compiler.Snapshot{}
	r.facts = map[*minic.Program]*analysis.Facts{}
}

// key is the engine's source key: the canonical rendering prefixed by its
// fingerprint (the minic layer).
func (r *replayer) key(prog *minic.Program) (skey, src string) {
	defer r.tr.open("minic")()
	src = minic.Render(prog)
	return fmt.Sprintf("%016x|%s", minic.FingerprintSource(src), src), src
}

// frontend returns the lowered module of a source, assembling it once.
func (r *replayer) frontend(prog *minic.Program, skey, src string) (*ir.Module, error) {
	if m, ok := r.mods[skey]; ok {
		return m, nil
	}
	defer r.tr.open("frontend")()
	m, _, err := compiler.FrontendIncrementalSrc(prog, src, r.fn)
	if err != nil {
		return nil, err
	}
	r.mods[skey] = m
	return m, nil
}

// analyze returns the static facts of a program (part of the conjecture
// layer: Analyze feeds CheckAll).
func (r *replayer) analyze(prog *minic.Program) *analysis.Facts {
	if f, ok := r.facts[prog]; ok {
		return f
	}
	defer r.tr.open("conjecture")()
	f := analysis.Analyze(prog)
	r.facts[prog] = f
	return f
}

// build optimizes and code-generates one configuration, resuming from the
// longest cached schedule-prefix snapshot like the engine.
func (r *replayer) build(mod *ir.Module, skey string, cfg compiler.Config, o compiler.Options) (*compiler.Result, error) {
	snaps := &snapView{r: r, base: skey + "|" + compiler.SnapshotKeyBase(cfg, o)}
	oo := o
	oo.Snapshots = snaps
	endOpt := r.tr.open("opt")
	optimized, pr, err := compiler.Optimize(mod, cfg, oo)
	endOpt()
	if err != nil {
		return nil, err
	}
	endCodegen := r.tr.open("codegen")
	exe, err := compiler.Codegen(optimized, cfg, o)
	endCodegen()
	if err != nil {
		return nil, err
	}
	r.w.passCost += int64(pr.Executions)
	return &compiler.Result{Exe: exe, Mod: optimized, PipelineExecutions: pr.Executions, Applied: pr.Applied}, nil
}

// compile is the replay's triage.CompileFn: the engine's compile, serving
// plain builds (and explicit schedules, keyed by digest) from cache.
func (r *replayer) compile(prog *minic.Program, cfg compiler.Config, o compiler.Options) (*compiler.Result, error) {
	skey, src := r.key(prog)
	mod, err := r.frontend(prog, skey, src)
	if err != nil {
		return nil, err
	}
	cacheable := len(o.Disabled) == 0 && o.BisectLimit <= 0 && len(o.ExtraDefects) == 0 &&
		len(o.SuppressDefects) == 0 && o.Stats == nil
	if !cacheable {
		return r.build(mod, skey, cfg, o)
	}
	sched := ""
	if o.Schedule != nil && o.Schedule.String() != compiler.ScheduleFor(cfg).String() {
		sched = "|sched:" + o.Schedule.Digest()
	}
	ckey := fmt.Sprintf("%s|%s%s", skey, cfg, sched)
	if res, ok := r.builds[ckey]; ok {
		return res, nil
	}
	res, err := r.build(mod, skey, cfg, o)
	if err != nil {
		return nil, err
	}
	r.builds[ckey] = res
	return res, nil
}

// record runs one single-pass debugging session with the family's native
// and cross-validation engines, as the engine's trace tier does.
func (r *replayer) record(exe *object.Executable, f compiler.Family) (*debugger.MultiTrace, error) {
	defer r.tr.open("debugger")()
	d := r.dbgs[f]
	rec, err := debugger.NewRecorder(exe, debugger.RecordOpts{}, d[0], d[1])
	if err != nil {
		return nil, err
	}
	r.w.recordings++
	return rec.Run()
}

// check is the conjecture layer's verdict on one trace.
func (r *replayer) check(facts *analysis.Facts, tr *debugger.Trace) []conjecture.Violation {
	defer r.tr.open("conjecture")()
	vs := conjecture.CheckAll(facts, tr)
	r.w.violations += int64(len(vs))
	return vs
}

// sweep replays Engine.Sweep over a family's full matrix and returns the
// reports' configurations and violations in matrix order.
func (r *replayer) sweep(prog *minic.Program, f compiler.Family) ([]compiler.Config, [][]conjecture.Violation, error) {
	skey, src := r.key(prog)
	mod, err := r.frontend(prog, skey, src)
	if err != nil {
		return nil, nil, err
	}
	facts := r.analyze(prog)
	cfgs := pokeholes.FullMatrix(f).Configs()
	viols := make([][]conjecture.Violation, len(cfgs))
	for i, cfg := range cfgs {
		res, err := r.build(mod, skey, cfg, compiler.Options{})
		if err != nil {
			return nil, nil, err
		}
		mt, err := r.record(res.Exe, f)
		if err != nil {
			return nil, nil, err
		}
		viols[i] = r.check(facts, mt.Views[0])
	}
	return cfgs, viols, nil
}

// warm mirrors the engine's Check of prog at cfg without spans: the state
// the report workload's violation scan left behind.
func (r *replayer) warm(prog *minic.Program, cfg compiler.Config) error {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	if _, err := r.compile(prog, cfg, compiler.Options{}); err != nil {
		return err
	}
	r.analyze(prog)
	return nil
}

// reportOutcome is one violation's bug report.
type reportOutcome struct {
	Culprit   string `json:"culprit"`
	Schedule  string `json:"schedule"`
	Minimized string `json:"minimized"` // fingerprint of the minimized program
}

// report replays the engine's Triage, ScheduleReduce and Minimize of one
// violation.
func (r *replayer) report(prog *minic.Program, cfg compiler.Config, v conjecture.Violation) reportOutcome {
	d := r.dbgs[cfg.Family][0]
	probes := int64(0)
	tg := triage.Target{Prog: prog, Facts: r.analyze(prog), Cfg: cfg, Key: v.Key(), Debugger: d,
		Compile: func(p *minic.Program, c compiler.Config, o compiler.Options) (*compiler.Result, error) {
			probes++
			return r.compile(p, c, o)
		}}
	var out reportOutcome
	endTriage := r.tr.open("triage")
	culprit, err := triage.Culprit(tg)
	endTriage()
	r.w.triages++
	r.w.triageProbe += probes
	if err != nil {
		culprit = "" // not controllable by a single knob (§4.3)
		r.w.untriaged++
	}
	out.Culprit = culprit

	endSched := r.tr.open("schedreduce")
	red, err := triage.ScheduleReduce(tg)
	endSched()
	if err == nil {
		out.Schedule = red.Schedule.String()
		r.w.schedProbe += int64(red.Probes)
	}

	pred := reduce.ViolationPredicateWith(cfg, v.Conjecture, v.Var, culprit, r.compile, d, 0)
	endReduce := r.tr.open("reduce")
	small := reduce.Reduce(prog, func(p *minic.Program) bool {
		defer r.tr.open("reduce.predicate")()
		r.w.candidates++
		ok := pred(p)
		if ok {
			r.w.accepted++
		}
		return ok
	})
	endReduce()
	out.Minimized = pokeholes.Fingerprint(small)
	return out
}

// snapView is one build's window on the replay's snapshot store, keyed
// like the engine's: source key plus compiler.SnapshotKeyBase.
type snapView struct {
	r    *replayer
	base string
}

func (s *snapView) Lookup(digests []string, maxExec int) (int, *compiler.Snapshot, bool) {
	// Longest prefix first; index 0 is the empty prefix.
	for i := len(digests) - 1; i >= 1; i-- {
		snap, ok := s.r.snaps[s.base+"|"+digests[i]]
		if !ok || (maxExec >= 0 && snap.Executions > maxExec) {
			continue
		}
		return i, snap, true
	}
	return 0, nil, false
}

func (s *snapView) Save(digest string, snap *compiler.Snapshot) {
	s.r.snaps[s.base+"|"+digest] = snap
}

// countingDebugger counts VM executions by the machines it is shown:
// every execution runs on a fresh vm.Machine, and holding the last one
// keeps its address from being reused by the next.
type countingDebugger struct {
	debugger.Inspector
	w    *work
	last *vm.Machine
}

func (d *countingDebugger) InspectAt(ps *debugger.PlannedStop, m *vm.Machine) *debugger.Stop {
	if m != d.last {
		d.last = m
		d.w.executions++
	}
	return d.Inspector.InspectAt(ps, m)
}
