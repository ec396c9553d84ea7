package main

import (
	"path/filepath"
	"slices"
	"time"

	"repro"
)

// spanLayers are the modules whose self time the traced runs report.
var spanLayers = []string{"minic", "frontend", "opt", "codegen", "debugger", "conjecture", "triage", "schedreduce", "reduce"}

// statsDelta sums the engine's counters over the ops of a run.
type statsDelta struct {
	frontends, compiles, traces            int64
	passesRun, passesSkipped, snapshotHits int64
	fnRelowered                            int64
	hits, misses                           uint64
}

func (d *statsDelta) add(before, after pokeholes.EngineStats) {
	d.frontends += after.Frontends - before.Frontends
	d.compiles += after.Compiles - before.Compiles
	d.traces += after.Traces - before.Traces
	d.passesRun += after.PassesRun - before.PassesRun
	d.passesSkipped += after.PassesSkipped - before.PassesSkipped
	d.snapshotHits += after.SnapshotHits - before.SnapshotHits
	d.fnRelowered += after.FnRelowered - before.FnRelowered
	d.hits += after.CacheHits - before.CacheHits
	d.misses += after.CacheMisses - before.CacheMisses
}

// minus is the work done since an earlier snapshot of the counters.
func (w work) minus(o work) work {
	return work{
		passCost:   w.passCost - o.passCost,
		recordings: w.recordings - o.recordings, executions: w.executions - o.executions,
		violations: w.violations - o.violations, triages: w.triages - o.triages,
		untriaged: w.untriaged - o.untriaged, triageProbe: w.triageProbe - o.triageProbe,
		schedProbe: w.schedProbe - o.schedProbe, candidates: w.candidates - o.candidates,
		accepted: w.accepted - o.accepted,
	}
}

// setLayers fills the per-layer metrics every traced run of ops ops
// measures: the self time of each layer its spans cover, the engine's
// counters, and the tracer's own overhead. Times and counts are per op.
func (r *result) setLayers(tr *tracer, s statsDelta, ops int, wall time.Duration) {
	n := float64(max(ops, 1))
	for l, d := range tr.selfTimes() {
		if slices.Contains(spanLayers, l) {
			r.set(l+".self_ms", ms(d)/n)
		}
	}
	per := func(name string, v int64) { r.set(name, float64(v)/n) }
	per("frontend.fn_relowered", s.fnRelowered)
	per("opt.passes_run", s.passesRun)
	per("opt.passes_skipped", s.passesSkipped)
	r.set("opt.snapshot_hit_ratio", ratio(float64(s.snapshotHits), float64(s.compiles)))
	per("codegen.calls", s.compiles)
	per("debugger.executions", s.traces)
	r.set("cache.hit_ratio", ratio(float64(s.hits), float64(s.hits+s.misses)))
	per("engine.frontends", s.frontends)
	per("engine.compiles", s.compiles)
	per("engine.traces", s.traces)
	r.set("trace.overhead_ratio", ratio(float64(tr.bookkeeping), float64(wall)))
}

// setReplay fills the counts only the layer replay of grid-cold and report
// measures. Its debugger.executions replaces the engine's Traces: it also
// counts the VM runs of triage and reduction probes.
func (r *result) setReplay(w work, ops int) {
	n := float64(max(ops, 1))
	per := func(name string, v int64) { r.set(name, float64(v)/n) }
	per("debugger.executions", w.executions)
	per("conjecture.violations", w.violations)
	per("triage.probes", w.triageProbe)
	r.set("triage.untriaged_ratio", ratio(float64(w.untriaged), float64(w.triages)))
	per("schedreduce.probes", w.schedProbe)
	per("reduce.candidates", w.candidates)
	r.set("reduce.accept_ratio", ratio(float64(w.accepted), float64(w.candidates)))
}

// traceFile is where a traced run writes its spans.
func traceFile(c *runConfig) string {
	return filepath.Join(c.out, "trace-"+c.workload+".json")
}
