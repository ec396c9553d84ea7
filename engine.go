package pokeholes

// This file defines the v2 session API. An Engine owns the resources one
// checking session needs — a worker budget, a fingerprint-keyed
// frontend/compile/analysis/trace cache, and the debugger engines — and
// exposes context-aware versions of the paper's pipeline stages. The
// compilation is staged (see internal/compiler): the config-invariant
// frontend is cached once per program — and assembled function by function
// from a per-function cache tier, so matrix sweeps never re-lower a
// program they have already seen, and near-identical programs (reduction
// candidates, fuzz mutants) re-lower only the functions that changed.

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/conjecture"
	"repro/internal/container"
	"repro/internal/debugger"
	"repro/internal/dwarf"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/minic"
	"repro/internal/object"
	"repro/internal/reduce"
	"repro/internal/store"
	"repro/internal/triage"
)

// Family selects a compiler family (GC or CL).
type Family = compiler.Family

// Debugger is a source-level debugger engine.
type Debugger = debugger.Debugger

// DefaultCacheSize is the compile-cache capacity of NewEngine unless
// overridden with WithCompileCache.
const DefaultCacheSize = 4096

// Engine is a checking session: it compiles, traces, checks, triages and
// minimizes programs, reusing work through a concurrency-safe cache keyed
// by canonical-source fingerprint. An Engine is safe for concurrent use;
// Campaign fans work out over its worker pool.
type Engine struct {
	workers    int
	cacheSize  int
	stepBudget int                       // VM steps per recorded execution; 0 = vm.DefaultMaxStep
	cache      *cache.Cache[string, any] // nil when caching is disabled
	storeDir   string                    // artifact-store directory ("" = no disk tier)
	store      *store.Store              // nil when no artifact store is configured
	storeErr   error                     // why the configured store is disabled, if it is
	debuggers  map[Family]Debugger
	// crossdbg holds, per family, the §4.2 cross-validation counterpart of
	// the configured debugger. Every trace records both engines' views in
	// one VM execution, so CrossValidate never re-executes the binary.
	crossdbg map[Family]Debugger

	frontends atomic.Int64
	compiles  atomic.Int64
	records   atomic.Int64

	// Optimizer pass counters: executions actually performed by backend
	// builds, executions skipped by resuming from a schedule-prefix
	// snapshot, and the builds that resumed from one.
	passesRun     atomic.Int64
	passesSkipped atomic.Int64
	snapshotHits  atomic.Int64

	// Function-granular frontend counters: per-function cache lookups made
	// while assembling modules, the lookups served from cache, and the
	// functions that had to be lowered fresh.
	fnFrontends    atomic.Int64
	fnFrontendHits atomic.Int64
	fnRelowered    atomic.Int64

	// Hunting-loop counters (see hunt.go): unique bug buckets opened,
	// and violations deduplicated into an existing bucket.
	bucketsFound  atomic.Int64
	dupViolations atomic.Int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the campaign worker-pool size (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCompileCache sets the cache capacity in entries. Zero disables
// caching entirely; a negative capacity means unbounded.
func WithCompileCache(entries int) Option {
	return func(e *Engine) { e.cacheSize = entries }
}

// WithDebugger replaces the family's native debugger for every trace the
// engine records.
func WithDebugger(f Family, d Debugger) Option {
	return func(e *Engine) { e.debuggers[f] = d }
}

// WithStepBudget caps the VM steps of every execution the engine records —
// traces, triage's knob-twiddling variants, and reduction's predicate
// runs. Zero or negative keeps vm.DefaultMaxStep.
func WithStepBudget(n int) Option {
	return func(e *Engine) { e.stepBudget = n }
}

// WithArtifactStore adds a persistent disk tier under the compile cache: a
// content-addressed directory of .mcx containers (internal/store) that
// plain builds fall through to — memory hit, then disk hit (decode and
// re-cache), then compute plus write-through. The directory is created if
// needed and may be shared by any number of engines and processes; replicas
// pointed at one directory warm-start off each other's compiles. If the
// store cannot be opened the engine runs memory-only and reports why in
// Stats().StoreError — callers that must not degrade silently (conjserved
// -store) check it right after NewEngine.
func WithArtifactStore(dir string) Option {
	return func(e *Engine) { e.storeDir = dir }
}

// NewEngine returns a session with the given options applied.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		workers:   runtime.GOMAXPROCS(0),
		cacheSize: DefaultCacheSize,
		debuggers: map[Family]Debugger{},
	}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	if e.stepBudget < 0 {
		e.stepBudget = 0
	}
	if e.cacheSize != 0 {
		e.cache = cache.New[string, any](e.cacheSize)
	}
	if e.storeDir != "" {
		e.store, e.storeErr = store.Open(e.storeDir)
	}
	e.crossdbg = map[Family]Debugger{}
	for _, f := range []Family{GC, CL} {
		if _, ok := e.debuggers[f]; !ok {
			e.debuggers[f] = NativeDebugger(f)
		}
		e.crossdbg[f] = crossEngineOf(e.debuggers[f])
	}
	return e
}

// crossEngineOf returns the other debugger engine relative to d — the one
// §4.2 cross-validation checks against. "Other" is relative to the
// engine's configured debugger, so a WithDebugger override flips the
// comparison too.
func crossEngineOf(d Debugger) Debugger {
	if d.Name() == "gdb" {
		return debugger.NewLLDB(compiler.DebuggerDefects("lldb"))
	}
	return debugger.NewGDB(compiler.DebuggerDefects("gdb"))
}

var (
	defaultEngine     *Engine
	defaultEngineOnce sync.Once
)

// Default returns the shared process-wide engine (the fallback session of
// experiments.NewRunner and similar conveniences).
func Default() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = NewEngine() })
	return defaultEngine
}

// EngineStats are an engine's lifetime work counters.
type EngineStats struct {
	// Frontends counts actual frontend runs (module assemblies of lowered
	// IR). One program checked across a whole configuration matrix lowers
	// once.
	Frontends int64 `json:"frontends"`
	// FnFrontends counts per-function frontend cache lookups — one per
	// function of every module assembly. FnFrontendHits is the subset
	// served from cache (cloned or shared instead of lowered), and
	// FnRelowered the functions lowered fresh. A one-function edit to an
	// already-seen program costs exactly one re-lower: hits == len(funcs)-1
	// and relowered == 1.
	FnFrontends    int64 `json:"fn_frontends"`
	FnFrontendHits int64 `json:"fn_frontend_hits"`
	FnRelowered    int64 `json:"fn_relowered"`
	// Compiles counts actual backend compilations — optimize + codegen —
	// (cache misses and uncacheable builds such as triage's knob-twiddling
	// variants). The config-invariant frontend is counted separately.
	Compiles int64 `json:"compiles"`
	// Traces counts actual recorded VM executions. One execution serves
	// every engine view of its session (Check and CrossValidate of one
	// build share a single execution).
	Traces int64 `json:"traces"`
	// PassesRun counts the optimizer pass executions backend compilations
	// actually performed; PassesSkipped counts executions avoided by
	// resuming from a schedule-prefix snapshot, and SnapshotHits the
	// compilations that resumed from one. PassesRun + PassesSkipped is
	// what the same work would have cost cold, so the skip ratio is the
	// snapshot tier's win.
	PassesRun     int64 `json:"passes_run"`
	PassesSkipped int64 `json:"passes_skipped"`
	SnapshotHits  int64 `json:"snapshot_hits"`
	// CacheHits and CacheMisses count lookups across the compile, analysis
	// and trace caches; CacheEntries is the current resident count.
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// Buckets counts the unique bug buckets the engine's hunts opened;
	// DupViolations counts hunt violations deduplicated into an
	// existing bucket. DupRate is DupViolations over all bucketed
	// violations (0 when the engine never hunted).
	Buckets       int64   `json:"buckets"`
	DupViolations int64   `json:"dup_violations"`
	DupRate       float64 `json:"dup_rate"`
	// Store carries the disk artifact tier's counters — hits, misses,
	// writes, bytes moved, quarantined entries — all zero when no
	// WithArtifactStore directory is configured. StoreError is non-empty
	// when a configured store failed to open and the engine degraded to
	// memory-only caching.
	Store      store.Stats `json:"store"`
	StoreError string      `json:"store_error,omitempty"`
}

// Stats returns the engine's work counters so far.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{Frontends: e.frontends.Load(), Compiles: e.compiles.Load(), Traces: e.records.Load(),
		FnFrontends: e.fnFrontends.Load(), FnFrontendHits: e.fnFrontendHits.Load(),
		FnRelowered: e.fnRelowered.Load(),
		PassesRun:   e.passesRun.Load(), PassesSkipped: e.passesSkipped.Load(),
		SnapshotHits: e.snapshotHits.Load(),
		Buckets:      e.bucketsFound.Load(), DupViolations: e.dupViolations.Load()}
	if total := s.Buckets + s.DupViolations; total > 0 {
		s.DupRate = float64(s.DupViolations) / float64(total)
	}
	if e.cache != nil {
		s.CacheHits, s.CacheMisses = e.cache.Stats()
		s.CacheEntries = e.cache.Len()
	}
	if e.store != nil {
		s.Store = e.store.Stats()
	}
	if e.storeErr != nil {
		s.StoreError = e.storeErr.Error()
	}
	return s
}

// DebuggerFor returns the debugger the engine uses for a family (the
// native one unless WithDebugger overrode it).
func (e *Engine) DebuggerFor(f Family) Debugger { return e.debuggers[f] }

// cacheableOptions reports whether a compilation can be served from the
// cache: only plain builds qualify, not triage's disabled-pass or
// bisect-limited variants, and not builds that export pass statistics.
// An explicit Schedule stays cacheable — compileFrom keys non-default
// schedules separately by digest, which is what makes ScheduleReduce's
// repeated probes cheap.
func cacheableOptions(o compiler.Options) bool {
	return len(o.Disabled) == 0 && o.BisectLimit <= 0 &&
		len(o.ExtraDefects) == 0 && len(o.SuppressDefects) == 0 && o.Stats == nil
}

// sourceKey identifies a program for caching: its canonical source,
// prefixed by the cheap fingerprint so key comparisons usually fail fast.
// Keying on the full source (not the 64-bit hash alone) means a hash
// collision can never serve another program's artifacts. Render is
// side-effect-free, so sourceKey can run from any goroutine; fan-out paths
// like Sweep still compute it once up front and thread it through srcKey
// parameters purely to avoid re-rendering per configuration.
func sourceKey(prog *minic.Program) string {
	src := minic.Render(prog)
	return fmt.Sprintf("%016x|%s", minic.FingerprintSource(src), src)
}

// engineFnCache adapts the engine's shared LRU to the incremental
// frontend's per-function cache. Values live in the same cache as the
// module/compile/trace tiers, under their own key prefixes. Lookup and hit
// counters are derived from the assembly result in frontend() rather than
// counted here, because the assembler may probe more than one key per
// function (canonical plus rebased-variant).
type engineFnCache struct{ e *Engine }

func (c engineFnCache) GetFunc(key string) (*compiler.FnArtifact, bool) {
	v, ok := c.e.cache.Get("fnfront|" + key)
	if !ok {
		return nil, false
	}
	return v.(*compiler.FnArtifact), true
}

func (c engineFnCache) AddFunc(key string, a *compiler.FnArtifact) {
	c.e.cache.Add("fnfront|"+key, a)
}

func (c engineFnCache) GetGlobals(key string) (*compiler.GlobalsTable, bool) {
	v, ok := c.e.cache.Get("fnglobals|" + key)
	if !ok {
		return nil, false
	}
	return v.(*compiler.GlobalsTable), true
}

func (c engineFnCache) AddGlobals(key string, t *compiler.GlobalsTable) {
	c.e.cache.Add("fnglobals|"+key, t)
}

// engineSnapshots adapts the engine's shared LRU to the optimizer's
// prefix-snapshot tier (compiler.SnapshotStore). One value is created per
// backend build so a hit's resumed-execution count can be folded into the
// engine's pass counters afterwards; the cache slots themselves are shared
// engine-wide under the "optsnap|" prefix.
type engineSnapshots struct {
	e       *Engine
	base    string
	resumed int64 // executions the snapshot hit skipped, if any
}

func (s *engineSnapshots) Lookup(digests []string, maxExec int) (int, *compiler.Snapshot, bool) {
	// Longest prefix first; index 0 is the empty prefix, worthless to
	// resume from. Peek keeps these probes out of the demand hit/miss
	// stats.
	for i := len(digests) - 1; i >= 1; i-- {
		v, ok := s.e.cache.Peek(s.base + "|" + digests[i])
		if !ok {
			continue
		}
		snap := v.(*compiler.Snapshot)
		if maxExec >= 0 && snap.Executions > maxExec {
			continue
		}
		s.resumed = int64(snap.Executions)
		s.e.snapshotHits.Add(1)
		s.e.passesSkipped.Add(s.resumed)
		return i, snap, true
	}
	return 0, nil, false
}

func (s *engineSnapshots) Save(digest string, snap *compiler.Snapshot) {
	s.e.cache.Add(s.base+"|"+digest, snap)
}

// frontend returns the config-invariant lowered IR of prog, computed once
// per canonical-source fingerprint. A module-cache miss does not re-lower
// the whole program: the module is assembled function by function from the
// per-function tier (compiler.FrontendIncremental), so reduction
// candidates and fuzz mutants re-lower only the functions they changed.
// The cached module is never mutated: every backend compilation clones it
// (compiler.CompileFrom). A waiter coalesced onto another goroutine's
// in-flight lowering unblocks with ctx.Err() when ctx is cancelled.
func (e *Engine) frontend(ctx context.Context, prog *minic.Program) (*ir.Module, error) {
	return e.frontendKeyed(ctx, prog, "")
}

// frontendKeyed is frontend with an optionally precomputed sourceKey, so
// callers that already rendered the program (compileFrom computes the key
// for its snapshot tier) don't render it twice.
func (e *Engine) frontendKeyed(ctx context.Context, prog *minic.Program, skey string) (*ir.Module, error) {
	if e.cache == nil {
		e.frontends.Add(1)
		return compiler.Frontend(prog)
	}
	if skey == "" {
		skey = sourceKey(prog)
	}
	key := "frontend|" + skey
	v, err := e.cache.GetOrComputeCtx(ctx, key, func() (any, error) {
		e.frontends.Add(1)
		// skey carries the canonical rendering after its 17-byte hash
		// prefix; hand it to the assembler so the per-function body texts
		// are slices of the string this lookup already paid for.
		mod, relowered, err := compiler.FrontendIncrementalSrc(prog, skey[17:], engineFnCache{e})
		if err != nil {
			return nil, err
		}
		e.fnFrontends.Add(int64(len(prog.Funcs)))
		e.fnFrontendHits.Add(int64(len(prog.Funcs) - relowered))
		e.fnRelowered.Add(int64(relowered))
		return mod, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ir.Module), nil
}

// compileFrom builds cfg's backend (optimize + codegen) over a lowered
// module, serving plain builds from the cache tiers: memory hit, then —
// when WithArtifactStore configured a disk tier — store hit (decode and
// re-cache), then compute plus write-through. A nil mod falls back to the
// (cached) frontend of prog; Sweep passes its shared module explicitly so
// the sharing holds even on cache-disabled engines. An empty srcKey is
// computed from prog (single-caller paths); concurrent paths precompute it.
//
// A store-served Result carries the executable and the pipeline metadata
// triage needs (Applied, PipelineExecutions) but a nil Mod: the optimized
// IR is a compile-time intermediate and is not persisted.
func (e *Engine) compileFrom(ctx context.Context, mod *ir.Module, srcKey string, prog *minic.Program, cfg Config, o compiler.Options) (*compiler.Result, error) {
	if e.cache != nil && srcKey == "" {
		// Needed by both the snapshot tier below and the compile key; the
		// cached frontend pays for this rendering anyway, so computing it
		// up front (frontendKeyed reuses it) costs uncacheable probe
		// builds nothing extra.
		srcKey = sourceKey(prog)
	}
	build := func() (*compiler.Result, error) {
		m := mod
		if m == nil {
			var err error
			if m, err = e.frontendKeyed(ctx, prog, srcKey); err != nil {
				return nil, err
			}
		}
		e.compiles.Add(1)
		oc := o
		var snaps *engineSnapshots
		if e.cache != nil && o.Stats == nil {
			snaps = &engineSnapshots{e: e, base: "optsnap|" + srcKey + "|" + compiler.SnapshotKeyBase(cfg, o)}
			oc.Snapshots = snaps
		}
		res, err := compiler.CompileFrom(m, cfg, oc)
		if err != nil {
			return nil, err
		}
		run := int64(res.PipelineExecutions)
		if snaps != nil {
			run -= snaps.resumed
		}
		e.passesRun.Add(run)
		return res, nil
	}
	if !cacheableOptions(o) || (e.cache == nil && e.store == nil) {
		return build()
	}
	if srcKey == "" {
		srcKey = sourceKey(prog)
	}
	// An explicit schedule equal to the configuration's canonical one is
	// the same compilation, so it keys to the same slot — default-schedule
	// artifacts, golden fixtures and warm stores stay byte-identical. A
	// genuinely different schedule (a ScheduleReduce probe) gets its digest
	// appended to the memory key and bypasses the disk tier: the .mcx
	// provenance has no schedule field, and probe artifacts are transient.
	schedSuffix := ""
	if o.Schedule != nil && o.Schedule.String() != compiler.ScheduleFor(cfg).String() {
		schedSuffix = "|sched:" + o.Schedule.Digest()
	}
	fetch := build
	if e.store != nil && schedSuffix == "" {
		fetch = func() (*compiler.Result, error) { return e.storeFetch(srcKey, cfg, build) }
	}
	if e.cache == nil {
		return fetch()
	}
	key := fmt.Sprintf("compile|%s|%s|%s|%s%s", srcKey, cfg.Family, cfg.Version, cfg.Level, schedSuffix)
	v, err := e.cache.GetOrComputeCtx(ctx, key, func() (any, error) { return fetch() })
	if err != nil {
		return nil, err
	}
	return v.(*compiler.Result), nil
}

// storeKeyOf derives the disk tier's content address from a sourceKey
// ("%016x|<canonical source>") and a configuration.
func storeKeyOf(srcKey string, cfg Config) store.Key {
	fp, _ := strconv.ParseUint(srcKey[:16], 16, 64)
	return store.Key{
		Fingerprint: fp,
		SourceLen:   len(srcKey) - 17,
		Family:      string(cfg.Family),
		Version:     cfg.Version,
		Level:       cfg.Level,
	}
}

// storeFetch is the disk tier of a plain build: serve the artifact from
// the store if an intact one exists, else run the build and write the
// result through. A failed write-through never fails the compilation —
// the store counts it (Stats().Store.WriteErrors) and the result is
// served from memory as usual.
func (e *Engine) storeFetch(srcKey string, cfg Config, build func() (*compiler.Result, error)) (*compiler.Result, error) {
	key := storeKeyOf(srcKey, cfg)
	if art, ok := e.store.Get(key); ok {
		return &compiler.Result{Exe: art.Exe,
			PipelineExecutions: art.PipelineExecutions, Applied: art.Applied}, nil
	}
	res, err := build()
	if err != nil {
		return nil, err
	}
	_ = e.store.Put(key, &container.Artifact{
		Exe: res.Exe,
		Prov: container.Provenance{
			Family: string(cfg.Family), Version: cfg.Version, Level: cfg.Level,
			Fingerprint: key.Fingerprint, SourceLen: key.SourceLen,
		},
		PipelineExecutions: res.PipelineExecutions,
		Applied:            res.Applied,
	})
	return res, nil
}

// compile builds prog under cfg, serving plain builds from the cache.
func (e *Engine) compile(ctx context.Context, prog *minic.Program, cfg Config, o compiler.Options) (*compiler.Result, error) {
	return e.compileFrom(ctx, nil, "", prog, cfg, o)
}

// compileFn exposes the caching compile as the hook triage and reduce
// accept, bound to ctx so cancellation propagates into their inner loops.
func (e *Engine) compileFn(ctx context.Context) triage.CompileFn {
	return func(prog *minic.Program, cfg compiler.Config, o compiler.Options) (*compiler.Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return e.compile(ctx, prog, cfg, o)
	}
}

// Facts returns the static analysis of prog, cached by fingerprint.
func (e *Engine) Facts(prog *minic.Program) *analysis.Facts {
	f, _ := e.facts(context.Background(), prog)
	return f
}

// facts is Facts under the caller's context: a waiter coalesced onto an
// in-flight analysis unblocks with ctx.Err() on cancellation (analysis
// itself never fails, so that is the only error).
func (e *Engine) facts(ctx context.Context, prog *minic.Program) (*analysis.Facts, error) {
	if e.cache == nil {
		return analysis.Analyze(prog), nil
	}
	key := "facts|" + sourceKey(prog)
	v, err := e.cache.GetOrComputeCtx(ctx, key, func() (any, error) { return analysis.Analyze(prog), nil })
	if err != nil {
		return nil, err
	}
	return v.(*analysis.Facts), nil
}

// record runs one single-pass debugger session over exe under the
// engine's step budget: the VM executes once and every given engine
// builds its view at each stop. Traces counts these executions.
func (e *Engine) record(exe *object.Executable, dbgs ...Debugger) (*debugger.MultiTrace, error) {
	e.records.Add(1)
	rec, err := debugger.NewRecorder(exe, debugger.RecordOpts{StepBudget: e.stepBudget}, dbgs...)
	if err != nil {
		return nil, err
	}
	return rec.Run()
}

// traceFrom compiles cfg's build over a lowered module (nil = the cached
// frontend of prog) and records the debugging session once, cached by
// (fingerprint, configuration) — no debugger component: the value is a
// MultiTrace whose view 0 is the family's configured debugger and view 1
// the §4.2 cross-validation engine, both recorded from the same single VM
// execution. srcKey follows the compileFrom convention.
func (e *Engine) traceFrom(ctx context.Context, mod *ir.Module, srcKey string, prog *minic.Program, cfg Config) (*debugger.MultiTrace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	record := func() (*debugger.MultiTrace, error) {
		res, err := e.compileFrom(ctx, mod, srcKey, prog, cfg, compiler.Options{})
		if err != nil {
			return nil, err
		}
		return e.record(res.Exe, e.debuggers[cfg.Family], e.crossdbg[cfg.Family])
	}
	if e.cache == nil {
		return record()
	}
	if srcKey == "" {
		srcKey = sourceKey(prog)
	}
	key := fmt.Sprintf("trace|%s|%s|%s|%s", srcKey, cfg.Family, cfg.Version, cfg.Level)
	v, err := e.cache.GetOrComputeCtx(ctx, key, func() (any, error) { return record() })
	if err != nil {
		return nil, err
	}
	return v.(*debugger.MultiTrace), nil
}

// trace returns the configured debugger's view of the (cached) single-pass
// session of prog under cfg.
func (e *Engine) trace(ctx context.Context, prog *minic.Program, cfg Config) (*Trace, error) {
	mt, err := e.traceFrom(ctx, nil, "", prog, cfg)
	if err != nil {
		return nil, err
	}
	return mt.Views[0], nil
}

// Compile builds prog under cfg and returns the executable, reusing a
// cached build of the same canonical source when available.
func (e *Engine) Compile(ctx context.Context, prog *minic.Program, cfg Config) (*object.Executable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := e.compile(ctx, prog, cfg, compiler.Options{})
	if err != nil {
		return nil, err
	}
	return res.Exe, nil
}

// CompileResult is Compile exposing the full compiler result (optimized
// IR, applied-pass log) for inspection tools like cmd/minicc.
func (e *Engine) CompileResult(ctx context.Context, prog *minic.Program, cfg Config) (*compiler.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.compile(ctx, prog, cfg, compiler.Options{})
}

// Trace compiles prog under cfg and records the session under the
// engine's debugger for the family (the paper's §4.2 trace).
func (e *Engine) Trace(ctx context.Context, prog *minic.Program, cfg Config) (*Trace, error) {
	return e.trace(ctx, prog, cfg)
}

// TraceAll compiles prog under cfg and returns both engine views — the
// family's configured debugger and the §4.2 cross-validation engine — of
// the binary's one recorded execution.
func (e *Engine) TraceAll(ctx context.Context, prog *minic.Program, cfg Config) (*debugger.MultiTrace, error) {
	return e.traceFrom(ctx, nil, "", prog, cfg)
}

// Check runs the full single-configuration pipeline: compile, trace under
// the family's debugger, and test the three conjectures.
func (e *Engine) Check(ctx context.Context, prog *minic.Program, cfg Config) (*Report, error) {
	tr, err := e.trace(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	facts, err := e.facts(ctx, prog)
	if err != nil {
		return nil, err
	}
	return &Report{Config: cfg, Trace: tr,
		Violations: conjecture.CheckAll(facts, tr)}, nil
}

// Measure computes line coverage and availability of variables of cfg's
// build of prog against its -O0 counterpart (§2). The O0 reference trace
// is cached, so measuring several levels of one program records it once.
func (e *Engine) Measure(ctx context.Context, prog *minic.Program, cfg Config) (Metrics, error) {
	refCfg := cfg
	refCfg.Level = "O0"
	ref, err := e.trace(ctx, prog, refCfg)
	if err != nil {
		return Metrics{}, err
	}
	tr, err := e.trace(ctx, prog, cfg)
	if err != nil {
		return Metrics{}, err
	}
	return metrics.Compute(tr, ref), nil
}

// Triage identifies the culprit optimization behind a violation (§4.3).
// The baseline build is served from the cache when Check already compiled
// the program; only the knob-twiddling variant builds run fresh.
func (e *Engine) Triage(ctx context.Context, prog *minic.Program, cfg Config, v Violation) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	facts, err := e.facts(ctx, prog)
	if err != nil {
		return "", err
	}
	tg := triage.Target{Prog: prog, Facts: facts, Cfg: cfg, Key: v.Key(),
		Compile: e.compileFn(ctx), Debugger: e.debuggers[cfg.Family], StepBudget: e.stepBudget}
	return triage.Culprit(tg)
}

// ScheduleReduce delta-debugs cfg's canonical pass schedule down to a
// minimal subsequence that still reproduces the violation — the
// schedule-granular deepening of Triage, which stops at one culprit pass.
// Every probe compiles an explicit candidate schedule through the
// engine's caching compile, so after any prior build of prog (a Check,
// say) probes re-run Optimize+Codegen from the cached lowered module and
// perform zero frontend executions. The reduction is sequential and
// deterministic: the same (prog, cfg, violation) yields byte-identical
// results at any worker count.
func (e *Engine) ScheduleReduce(ctx context.Context, prog *minic.Program, cfg Config, v Violation) (*ScheduleReduction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	facts, err := e.facts(ctx, prog)
	if err != nil {
		return nil, err
	}
	tg := triage.Target{Prog: prog, Facts: facts, Cfg: cfg, Key: v.Key(),
		Compile: e.compileFn(ctx), Debugger: e.debuggers[cfg.Family], StepBudget: e.stepBudget}
	return triage.ScheduleReduce(tg)
}

// Minimize shrinks prog while preserving the violation and its culprit
// (§4.4). An empty culprit skips the culprit-preservation check. On
// context cancellation the best reduction found so far is returned.
func (e *Engine) Minimize(ctx context.Context, prog *minic.Program, cfg Config, v Violation, culprit string) *minic.Program {
	pred := reduce.ViolationPredicateWith(cfg, v.Conjecture, v.Var, culprit,
		e.compileFn(ctx), e.debuggers[cfg.Family], e.stepBudget)
	return reduce.Reduce(prog, pred)
}

// ClassifyDWARF assigns the paper's four-way DIE-defect category to a
// violation (§5.3) on the engine's (cached) build of prog under cfg.
func (e *Engine) ClassifyDWARF(ctx context.Context, prog *minic.Program, cfg Config, v Violation) (dwarf.Class, error) {
	exe, err := e.Compile(ctx, prog, cfg)
	if err != nil {
		return "", err
	}
	return ClassifyDWARF(exe, v)
}

// CrossValidate revalidates a violation in the other debugger engine
// (§4.2): a violation that disappears there points at the checking
// debugger rather than the compiler. "Other" is relative to the engine's
// configured debugger for the family, so a WithDebugger override flips
// the comparison too. The other engine's view was recorded alongside the
// primary one in the binary's single execution, so cross-validating after
// a Check re-runs nothing — it reads the second view of the same session.
func (e *Engine) CrossValidate(ctx context.Context, prog *minic.Program, cfg Config, v Violation) (bool, error) {
	mt, err := e.traceFrom(ctx, nil, "", prog, cfg)
	if err != nil {
		return false, err
	}
	tr := mt.Views[1]
	facts, err := e.facts(ctx, prog)
	if err != nil {
		return false, err
	}
	for _, got := range conjecture.CheckAll(facts, tr) {
		if got.Key() == v.Key() {
			return true, nil
		}
	}
	return false, nil
}
