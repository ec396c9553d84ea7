package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/compiler"
	"repro/internal/conjecture"
	"repro/internal/fuzzgen"
	"repro/internal/minic"
)

// grid-cold: a closed loop of one client sweeping new fuzzed programs
// across both families' full version × level matrices (66 configurations),
// the shape of the paper's Table 1 and Figures 2-3. Optimize, codegen and
// the VM record do almost all the work; the frontend runs once per
// program; triage, reduction and serving do nothing. Every program is new,
// so the engine's LRU fills and churns: the cache is write-heavy here.

// gridPool is how many programs a run generates; a run stops early if it
// sweeps them all before its time is up.
const (
	gridPool      = 1500
	gridPoolSmall = 2
)

// gridOp sweeps one program across both families and returns its
// violation digest.
func gridOp(ctx context.Context, eng *pokeholes.Engine, prog *minic.Program) (string, error) {
	gc, err := eng.Sweep(ctx, prog, pokeholes.FullMatrix(pokeholes.GC))
	if err != nil {
		return "", err
	}
	cl, err := eng.Sweep(ctx, prog, pokeholes.FullMatrix(pokeholes.CL))
	if err != nil {
		return "", err
	}
	return digestViolations(gc, cl), nil
}

func runGrid(c *runConfig) (*result, error) {
	n := gridPool
	if c.small {
		n = gridPoolSmall
	}
	var eng *pokeholes.Engine
	var seeds []int64
	setups, err := repeatSetup(setupReps, func() error {
		eng = pokeholes.NewEngine(pokeholes.WithWorkers(c.conns))
		seeds = inputSeeds(c, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceGrid(c, seeds)
	}
	res := newResult()
	ctx := context.Background()
	var lat []float64
	digests := make([]string, 0, len(seeds))
	ph := startPhase()
	deadline := c.deadline(ph.t0)
	for i, fs := range seeds {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		prog := fuzzgen.GenerateSeed(fs)
		res.attempted++
		t := time.Now()
		var d string
		err := guard(func() (err error) {
			d, err = gridOp(ctx, eng, prog)
			return err
		})
		lat = append(lat, ms(time.Since(t)))
		if err != nil {
			res.failed++
			fmt.Printf("# op %d (fuzz seed %d) failed: %v\n", i, fs, err)
		}
		digests = append(digests, d)
	}
	res.setEndToEnd(setups, ph.end(), len(digests))
	res.noteTail("grid op latency", lat)

	// Shadow: every shadowEvery-th program again on a cold engine.
	cold := pokeholes.NewEngine(pokeholes.WithWorkers(c.conns), pokeholes.WithCompileCache(0))
	for i := 0; i < len(digests); i += shadowEvery {
		d, err := gridOp(ctx, cold, fuzzgen.GenerateSeed(seeds[i]))
		if err != nil || d != digests[i] {
			res.mismatch("grid op %d (fuzz seed %d): cached digest %s, cold %s (%v)", i, seeds[i], digests[i], d, err)
		}
	}
	if err := checkPinned(c, res, digests, func(e *expected) *[]string { return &e.Grid }); err != nil {
		return nil, err
	}
	return res, nil
}

// traceGrid is the traced run: one worker, every program swept by a
// serial engine and then replayed layer by layer. The replay must do the
// engine's work exactly — same violation digest, same pass cost, same VM
// executions — or the op counts as failed.
func traceGrid(c *runConfig, seeds []int64) (*result, error) {
	res := newResult()
	tr := newTracer()
	ctx := context.Background()
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(1))
	rp := newReplayer(tr)
	stats := statsDelta{}
	var overhead []float64
	ph := startPhase()
	deadline := c.deadline(ph.t0)
	for i, fs := range seeds {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		prog := fuzzgen.GenerateSeed(fs)
		res.attempted++
		tr.beginOp(i + 1)
		endOp := tr.open("op")
		before := eng.Stats()
		t := time.Now()
		want, err := gridOp(ctx, eng, prog)
		engMs := ms(time.Since(t))
		after := eng.Stats()
		stats.add(before, after)
		if err != nil {
			endOp()
			res.failed++
			continue
		}
		rp.reset()
		w0 := rp.w
		t = time.Now()
		endReplay := tr.open("replay")
		got, err := replayGrid(rp, prog)
		endReplay()
		overhead = append(overhead, engMs-ms(time.Since(t)))
		endOp()
		w := rp.w.minus(w0)
		switch {
		case err != nil:
			res.mismatch("grid op %d: replay failed: %v", i, err)
		case got != want:
			res.mismatch("grid op %d: replay digest %s, engine %s", i, got, want)
		case w.passCost != (after.PassesRun+after.PassesSkipped)-(before.PassesRun+before.PassesSkipped):
			res.mismatch("grid op %d: replay pass cost %d, engine %d", i, w.passCost,
				(after.PassesRun+after.PassesSkipped)-(before.PassesRun+before.PassesSkipped))
		case w.recordings != after.Traces-before.Traces:
			res.mismatch("grid op %d: replay executions %d, engine %d", i, w.recordings, after.Traces-before.Traces)
		}
	}
	res.setLayers(tr, stats, res.attempted, ph.end().wall)
	res.setReplay(rp.w, res.attempted)
	res.set("cache.entries", float64(eng.Stats().CacheEntries))
	res.set("engine.overhead_ms", Mean(overhead))
	return res, tr.writeFile(traceFile(c))
}

// replayGrid replays gridOp through the layers and returns the same digest.
func replayGrid(rp *replayer, prog *minic.Program) (string, error) {
	var cfgs []compiler.Config
	var viols [][]conjecture.Violation
	for _, f := range []compiler.Family{compiler.GC, compiler.CL} {
		cs, vs, err := rp.sweep(prog, f)
		if err != nil {
			return "", err
		}
		cfgs, viols = append(cfgs, cs...), append(viols, vs...)
	}
	return digestReports(cfgs, viols), nil
}
