package main

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// report: the §4.3-4.4 path from a violation to a bug report on one warm
// engine. Set-up checks new programs at gc and cl trunk -O2 (alternating)
// and keeps the first violation of each until it has the run's
// violations; each op then triages one violation, delta-debugs its pass
// schedule and minimizes the program while preserving the culprit. Triage
// probes, ddmin probes and reduction candidates dominate; every candidate
// re-lowers through the incremental frontend; no sweep runs. One
// violation per program keeps the ops independent: a program's
// violations cost alike, so taking them all would let a few expensive
// programs decide a run.

// reportViolations is how many violations set-up collects: more than a
// run reports in its time, so runs end on time rather than on inputs.
const (
	reportViolations      = 600
	reportViolationsSmall = 2
)

// violationInput is one violation the scan found, with the program and
// configuration that showed it.
type violationInput struct {
	in  input
	cfg pokeholes.Config
	v   pokeholes.Violation
}

// scanViolations checks the seed's programs until it has the first
// violation of want of them, leaving the engine warm with their builds
// and traces, and returns them in stratified order.
func scanViolations(ctx context.Context, c *runConfig, eng *pokeholes.Engine, want int) ([]violationInput, error) {
	cfgs := [2]pokeholes.Config{
		{Family: pokeholes.GC, Version: "trunk", Level: "O2"},
		{Family: pokeholes.CL, Version: "trunk", Level: "O2"},
	}
	var out []violationInput
	var sizes []int
	next := fuzzBase(c.seed)
	for checked := 0; len(out) < want; checked++ {
		in := nextInput(c, next)
		next = in.fuzzSeed + 1
		cfg := cfgs[checked%2]
		rep, err := eng.Check(ctx, in.prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("scan fuzz seed %d at %s: %w", in.fuzzSeed, cfg, err)
		}
		if len(rep.Violations) > 0 {
			out = append(out, violationInput{in, cfg, rep.Violations[0]})
			sizes = append(sizes, in.size)
		}
	}
	return stratify(out, sizes), nil
}

// reportOp turns one violation into a bug report. A triage error means
// the violation is not controllable by a single knob (untriaged), as in
// campaigns; a failed schedule reduction leaves the schedule empty.
func reportOp(ctx context.Context, eng *pokeholes.Engine, vi violationInput) reportOutcome {
	var out reportOutcome
	if culprit, err := eng.Triage(ctx, vi.in.prog, vi.cfg, vi.v); err == nil {
		out.Culprit = culprit
	}
	if red, err := eng.ScheduleReduce(ctx, vi.in.prog, vi.cfg, vi.v); err == nil {
		out.Schedule = red.Schedule.String()
	}
	small := eng.Minimize(ctx, vi.in.prog, vi.cfg, vi.v, out.Culprit)
	out.Minimized = pokeholes.Fingerprint(small)
	return out
}

func runReport(c *runConfig) (*result, error) {
	want := reportViolations
	if c.small {
		want = reportViolationsSmall
	}
	ctx := context.Background()
	var eng *pokeholes.Engine
	var viols []violationInput
	setups, err := repeatSetup(setupReps, func() (err error) {
		eng = pokeholes.NewEngine(pokeholes.WithWorkers(c.conns))
		viols, err = scanViolations(ctx, c, eng, want)
		return err
	})
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceReport(c, viols)
	}
	res := newResult()
	var lat []float64
	var outs []reportOutcome
	untriaged := 0
	ph := startPhase()
	deadline := c.deadline(ph.t0)
	for i, vi := range viols {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		res.attempted++
		t := time.Now()
		var out reportOutcome
		err := guard(func() error {
			out = reportOp(ctx, eng, vi)
			return nil
		})
		lat = append(lat, ms(time.Since(t)))
		if err != nil {
			res.failed++
			fmt.Printf("# op %d (fuzz seed %d) failed: %v\n", i, vi.in.fuzzSeed, err)
		}
		if out.Culprit == "" {
			untriaged++
		}
		outs = append(outs, out)
	}
	res.setEndToEnd(setups, ph.end(), len(outs))
	done := viols[:len(outs)]
	res.noteTail("report op latency", lat)
	res.note("untriaged: %d of %d reports", untriaged, len(outs))

	cold := pokeholes.NewEngine(pokeholes.WithWorkers(c.conns), pokeholes.WithCompileCache(0))
	for i := 0; i < len(done); i += shadowEvery {
		if got := reportOp(ctx, cold, done[i]); got != outs[i] {
			res.mismatch("report op %d (fuzz seed %d): cached %+v, cold %+v", i, done[i].in.fuzzSeed, outs[i], got)
		}
	}
	if err := checkPinned(c, res, outs, func(e *expected) *[]reportOutcome { return &e.Report }); err != nil {
		return nil, err
	}
	return res, nil
}

// traceReport is the traced run. Each op gets a fresh serial engine with
// an unbounded cache and a fresh replay, both warmed by the check the scan
// ran, so neither evicts what the other keeps. The replay must give the
// engine's report and pass cost.
func traceReport(c *runConfig, viols []violationInput) (*result, error) {
	res := newResult()
	tr := newTracer()
	ctx := context.Background()
	rp := newReplayer(tr)
	stats := statsDelta{}
	var eng *pokeholes.Engine
	var overhead []float64
	ph := startPhase()
	deadline := c.deadline(ph.t0)
	for i, vi := range viols {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		eng = pokeholes.NewEngine(pokeholes.WithWorkers(1), pokeholes.WithCompileCache(-1))
		if _, err := eng.Check(ctx, vi.in.prog, vi.cfg); err != nil {
			return nil, err
		}
		rp.reset()
		if err := rp.warm(vi.in.prog, vi.cfg); err != nil {
			return nil, err
		}
		res.attempted++
		tr.beginOp(i + 1)
		endOp := tr.open("op")
		before := eng.Stats()
		t := time.Now()
		want := reportOp(ctx, eng, vi)
		engMs := ms(time.Since(t))
		after := eng.Stats()
		stats.add(before, after)
		w0 := rp.w
		t = time.Now()
		endReplay := tr.open("replay")
		got := rp.report(vi.in.prog, vi.cfg, vi.v)
		endReplay()
		overhead = append(overhead, engMs-ms(time.Since(t)))
		endOp()
		w := rp.w.minus(w0)
		engCost := (after.PassesRun + after.PassesSkipped) - (before.PassesRun + before.PassesSkipped)
		switch {
		case got != want:
			res.mismatch("report op %d: replay %+v, engine %+v", i, got, want)
		case w.passCost != engCost:
			res.mismatch("report op %d: replay pass cost %d, engine %d", i, w.passCost, engCost)
		case w.recordings != after.Traces-before.Traces:
			res.mismatch("report op %d: replay sessions %d, engine %d", i, w.recordings, after.Traces-before.Traces)
		}
	}
	res.setLayers(tr, stats, res.attempted, ph.end().wall)
	res.setReplay(rp.w, res.attempted)
	res.set("cache.entries", float64(eng.Stats().CacheEntries))
	res.set("engine.overhead_ms", Mean(overhead))
	return res, tr.writeFile(traceFile(c))
}
