package pokeholes_test

// Acceptance tests for the optimizer's schedule-prefix snapshot tier: a
// snapshot-warm engine must produce byte-identical results to a cold,
// from-scratch engine — across Sweep grids, triage (flag search and
// bisection), and ScheduleReduce, at 1 and 8 workers — while executing
// measurably fewer optimizer passes. The cold reference is a cache-disabled
// engine (WithCompileCache(0)): the tier lives in the compile cache, so
// that engine runs every build through the snapshot-free compiler.Optimize
// path.

import (
	"bytes"
	"context"
	"testing"

	"repro"
)

// TestSnapshotSweepByteIdentical pins the tier's hard constraint on the
// hottest path: full version × level sweeps of both families, at 1 and 8
// workers, produce reports byte-identical to a cache-disabled engine's
// — and the serial snapshot engine demonstrably skips prefix work (for
// the gc grid, at least a quarter of all pass executions, the sharing the
// level schedules' common prefixes buy).
func TestSnapshotSweepByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, fam := range []pokeholes.Family{pokeholes.GC, pokeholes.CL} {
		mx := pokeholes.FullMatrix(fam)
		for _, seed := range []int64{7, 56} {
			prog := pokeholes.GenerateProgram(seed)
			cold := pokeholes.NewEngine(pokeholes.WithWorkers(1), pokeholes.WithCompileCache(0))
			want, err := cold.Sweep(ctx, prog, mx)
			if err != nil {
				t.Fatal(err)
			}
			if s := cold.Stats(); s.PassesSkipped != 0 || s.SnapshotHits != 0 {
				t.Fatalf("cache-disabled engine skipped passes: %+v", s)
			}
			for _, workers := range []int{1, 8} {
				warm := pokeholes.NewEngine(pokeholes.WithWorkers(workers))
				got, err := warm.Sweep(ctx, prog, mx)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Reports {
					if !bytes.Equal(reportJSON(t, want.Reports[i]), reportJSON(t, got.Reports[i])) {
						t.Errorf("%s seed %d workers %d: %s report differs from cold run",
							fam, seed, workers, got.Configs[i])
					}
				}
				s := warm.Stats()
				if s.SnapshotHits == 0 || s.PassesSkipped == 0 {
					t.Errorf("%s seed %d workers %d: sweep never resumed from a snapshot (%+v)",
						fam, seed, workers, s)
				}
				// Counters must balance: warm work plus skipped work is the
				// cold run's total.
				if coldTotal := cold.Stats().PassesRun; s.PassesRun+s.PassesSkipped != coldTotal {
					t.Errorf("%s seed %d workers %d: passes run %d + skipped %d != cold %d",
						fam, seed, workers, s.PassesRun, s.PassesSkipped, coldTotal)
				}
				// The serial engine's schedule-prefix reuse is deterministic;
				// the gc grid shares enough prefix to drop >= 25% of all
				// executions (concurrent workers may save less when siblings
				// race ahead of the checkpoint they'd resume from).
				if workers == 1 && fam == pokeholes.GC {
					total := s.PassesRun + s.PassesSkipped
					if 4*s.PassesSkipped < total {
						t.Errorf("gc seed %d: serial sweep skipped %d of %d passes, want >= 25%%",
							seed, s.PassesSkipped, total)
					}
				}
			}
		}
	}
}

// TestSnapshotTriageByteIdentical: both triage strategies — gc's
// per-pass flag search and cl's pipeline bisection — return the same
// culprit on a snapshot-warm engine as on a cold one, and their probes
// actually resume from snapshots (bisection probes become O(suffix)).
func TestSnapshotTriageByteIdentical(t *testing.T) {
	ctx := context.Background()
	cases := []pokeholes.Config{
		{Family: pokeholes.GC, Version: "trunk", Level: "O2"},
		{Family: pokeholes.CL, Version: "trunk", Level: "Og"},
	}
	for _, cfg := range cases {
		triaged := 0
		for seed := int64(1000); seed < 1040 && triaged < 2; seed++ {
			prog := pokeholes.GenerateProgram(seed)
			cold := pokeholes.NewEngine(pokeholes.WithCompileCache(0))
			rep, err := cold.Check(ctx, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				want, errCold := cold.Triage(ctx, prog, cfg, v)
				warm := pokeholes.NewEngine()
				if _, err := warm.Check(ctx, prog, cfg); err != nil {
					t.Fatal(err)
				}
				got, errWarm := warm.Triage(ctx, prog, cfg, v)
				if (errCold == nil) != (errWarm == nil) || got != want {
					t.Errorf("%s seed %d %s: triage differs: cold (%q, %v) vs warm (%q, %v)",
						cfg, seed, v.Key(), want, errCold, got, errWarm)
				}
				if errCold != nil {
					continue
				}
				triaged++
				if s := warm.Stats(); s.PassesSkipped == 0 {
					t.Errorf("%s seed %d: warm triage never resumed from a snapshot (%+v)", cfg, seed, s)
				}
			}
		}
		if triaged == 0 {
			t.Errorf("%s: no triagable violation in the probe seed range; comparison is vacuous", cfg)
		}
	}
}

// TestSnapshotScheduleReduceByteIdentical: ddmin reductions on a
// snapshot-warm engine return the identical minimal schedule and probe
// count as on a cold engine, at 1 and 8 workers, while the probes share
// prefixes through the snapshot tier and so run strictly fewer passes.
func TestSnapshotScheduleReduceByteIdentical(t *testing.T) {
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(schedSplitSeed)
	// passes counts the reductions' optimizer work only, not the Check
	// that finds the violations.
	reduceAll := func(eng *pokeholes.Engine) (scheds []string, probes []int, passes int64) {
		rep, err := eng.Check(ctx, prog, schedCfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			t.Fatalf("seed %d has no violations", schedSplitSeed)
		}
		before := eng.Stats().PassesRun
		for _, v := range rep.Violations {
			red, err := eng.ScheduleReduce(ctx, prog, schedCfg, v)
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, red.Schedule.String())
			probes = append(probes, red.Probes)
		}
		return scheds, probes, eng.Stats().PassesRun - before
	}
	coldScheds, coldProbes, coldPasses := reduceAll(pokeholes.NewEngine(pokeholes.WithCompileCache(0)))
	for _, workers := range []int{1, 8} {
		warm := pokeholes.NewEngine(pokeholes.WithWorkers(workers))
		scheds, probes, passes := reduceAll(warm)
		for i := range coldScheds {
			if scheds[i] != coldScheds[i] || probes[i] != coldProbes[i] {
				t.Errorf("workers %d violation %d: (%q, %d probes) differs from cold (%q, %d probes)",
					workers, i, scheds[i], probes[i], coldScheds[i], coldProbes[i])
			}
		}
		if s := warm.Stats(); s.PassesSkipped == 0 || s.SnapshotHits == 0 {
			t.Errorf("workers %d: reduction probes never resumed from a snapshot (%+v)", workers, s)
		}
		if passes >= coldPasses {
			t.Errorf("workers %d: reductions ran %d passes, cold ran %d — want strictly fewer",
				workers, passes, coldPasses)
		}
	}
}
