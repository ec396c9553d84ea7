package pokeholes_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro"
	"repro/internal/compiler"
	"repro/internal/conjecture"
	"repro/internal/experiments"
	"repro/internal/fuzzgen"
	"repro/internal/minic"
)

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the mapping and the recorded shapes).
// Program counts are scaled down from the paper's 1000/5000 so a full
// -bench=. run stays in CI territory; cmd/paperbench runs the full sizes.
// Each iteration runs on a fresh engine session so the caches start cold.

const (
	benchPrograms       = 30
	benchTriagePrograms = 6
	benchSeed           = 42
)

// crossValidateMatches sinks the legacy-baseline revalidation result of
// BenchmarkCrossValidate so the comparison loop cannot be elided.
var crossValidateMatches int

func benchRunner() *experiments.Runner {
	return experiments.NewRunner(pokeholes.NewEngine())
}

// BenchmarkFigure1 regenerates the §2 quantitative study (line coverage,
// availability of variables, product across versions and levels).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Figure1(context.Background(), benchPrograms/3, benchSeed, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the per-level violation counts.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchRunner().Table1(context.Background(), benchPrograms, benchSeed, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the clang-like level-set distribution.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lv, err := benchRunner().Sweep(context.Background(), compiler.CL, "trunk", benchPrograms, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		experiments.Figure23(lv, io.Discard)
	}
}

// BenchmarkFigure3 regenerates the gcc-like level-set distribution.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lv, err := benchRunner().Sweep(context.Background(), compiler.GC, "trunk", benchPrograms, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		experiments.Figure23(lv, io.Discard)
	}
}

// BenchmarkTable2 regenerates the triaged culprit ranking (the expensive
// experiment: every violation is bisected or flag-searched).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Table2(context.Background(), benchTriagePrograms, benchSeed, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the issue catalog table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard)
	}
}

// BenchmarkTable4 regenerates the cross-version regression study (one
// matrix campaign per family).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner().Table4(context.Background(), benchPrograms/2, benchSeed, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the per-program violation grid.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner().Figure4(context.Background(), benchPrograms/2, benchSeed, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinePerProgram measures the single-program end-to-end cost
// (generate, compile, trace, check one conjecture sweep) — the paper
// reports ~30 s/program on its server; this quantifies our substrate.
// The engine's cache is disabled so every iteration is a cold run.
func BenchmarkPipelinePerProgram(b *testing.B) {
	eng := pokeholes.NewEngine(pokeholes.WithCompileCache(0))
	for i := 0; i < b.N; i++ {
		prog := pokeholes.GenerateProgram(int64(i))
		if _, err := eng.Check(context.Background(), prog, pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileOnly isolates the compiler (lower + optimize + codegen),
// with the cache disabled so each iteration really compiles.
func BenchmarkCompileOnly(b *testing.B) {
	eng := pokeholes.NewEngine(pokeholes.WithCompileCache(0))
	prog := pokeholes.GenerateProgram(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compile(context.Background(), prog, pokeholes.Config{Family: pokeholes.CL, Version: "trunk", Level: "O3"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOnly isolates the debugger session over a fixed binary.
func BenchmarkTraceOnly(b *testing.B) {
	prog := pokeholes.GenerateProgram(7)
	exe, err := pokeholes.NewEngine().Compile(context.Background(), prog, pokeholes.Config{Family: pokeholes.CL, Version: "trunk", Level: "O3"})
	if err != nil {
		b.Fatal(err)
	}
	dbg := pokeholes.NativeDebugger(pokeholes.CL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pokeholes.RecordTrace(exe, dbg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFirstHitVsFullLoop quantifies design decision 2 of
// DESIGN.md: first-hit line checking versus stopping at every breakpoint
// hit. The recorded trace is the same; the cost difference is the number of
// debugger stops.
func BenchmarkAblationFirstHitVsFullLoop(b *testing.B) {
	prog := pokeholes.GenerateProgram(11)
	exe, err := pokeholes.NewEngine().Compile(context.Background(), prog, pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"})
	if err != nil {
		b.Fatal(err)
	}
	dbg := pokeholes.NativeDebugger(pokeholes.GC)
	b.Run("first-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pokeholes.RecordTrace(exe, dbg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFuzzgen isolates test-subject generation.
func BenchmarkFuzzgen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fuzzgen.GenerateSeed(int64(i))
	}
}

// BenchmarkCampaignSweep measures one engine campaign (Table 1's
// substrate: every level of gc trunk over the seed pool), with a fresh
// engine per iteration so the cache starts cold.
func BenchmarkCampaignSweep(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := pokeholes.NewEngine(pokeholes.WithWorkers(workers))
				results, err := eng.Campaign(context.Background(), pokeholes.CampaignSpec{
					Family: pokeholes.GC, Version: "trunk",
					N: benchPrograms, Seed0: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				for res := range results {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// BenchmarkSweepVsIndependentChecks pins the tentpole claim on the
// paper's actual matrix workload (check + §2 metrics per configuration,
// the Figure 1 substrate): one Engine.Sweep over a family's full
// version × level matrix beats the same grid evaluated as independent
// per-config sessions. The sweep lowers the frontend once, analyzes once,
// and records each version's O0 reference trace once; the independent
// loop — what a per-config driver does without a matrix primitive —
// re-derives all of that for every configuration, on top of running the
// configs serially instead of over the worker pool.
func BenchmarkSweepVsIndependentChecks(b *testing.B) {
	prog := pokeholes.GenerateProgram(7)
	mx := pokeholes.FullMatrix(pokeholes.GC)
	mx.Measure = true
	configs := mx.Configs()
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := pokeholes.NewEngine()
			if _, err := eng.Sweep(context.Background(), prog, mx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// One fresh session per config: work is shared within a config
			// (Measure reuses Check's trace) but never across configs.
			for _, cfg := range configs {
				eng := pokeholes.NewEngine()
				if _, err := eng.Check(context.Background(), prog, cfg); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Measure(context.Background(), prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSweepPrefixSnapshots measures the schedule-prefix snapshot
// tier on its headline workload: a full gc version × level sweep, where
// sibling levels share long canonical-schedule prefixes. "cold" disables
// the compile cache and with it the tier, so every build runs the full
// pipeline; "snapshot" is the default engine. Both run serially (one
// worker) so the reported passes/op and skipped/op are deterministic —
// byte-identical reports, ~quarter fewer pass executions.
func BenchmarkSweepPrefixSnapshots(b *testing.B) {
	prog := pokeholes.GenerateProgram(7)
	mx := pokeholes.FullMatrix(pokeholes.GC)
	for _, mode := range []struct {
		name string
		opts []pokeholes.Option
	}{
		{"cold", []pokeholes.Option{pokeholes.WithWorkers(1), pokeholes.WithCompileCache(0)}},
		{"snapshot", []pokeholes.Option{pokeholes.WithWorkers(1)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var run, skipped int64
			for i := 0; i < b.N; i++ {
				eng := pokeholes.NewEngine(mode.opts...)
				if _, err := eng.Sweep(context.Background(), prog, mx); err != nil {
					b.Fatal(err)
				}
				s := eng.Stats()
				run += s.PassesRun
				skipped += s.PassesSkipped
			}
			b.ReportMetric(float64(run)/float64(b.N), "passes/op")
			b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
		})
	}
}

// BenchmarkScheduleReducePrefixSnapshots measures the tier on ddmin's
// probe stream: every ScheduleReduce probe is an explicit schedule sharing
// prefixes with earlier probes, so a snapshot-warm engine optimizes only
// suffixes. "cold" disables the compile cache, so every probe recompiles
// from scratch: the full-recompile baseline. The warming Check runs
// outside the timer; passes/op counts only the reduction's own optimizer
// work.
func BenchmarkScheduleReducePrefixSnapshots(b *testing.B) {
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	prog, report := findViolatingSeed(b, cfg)
	v := report.Violations[0]
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		opts []pokeholes.Option
	}{
		{"cold", []pokeholes.Option{pokeholes.WithWorkers(1), pokeholes.WithCompileCache(0)}},
		{"snapshot", []pokeholes.Option{pokeholes.WithWorkers(1)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var run int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := pokeholes.NewEngine(mode.opts...)
				if _, err := eng.Check(ctx, prog, cfg); err != nil {
					b.Fatal(err)
				}
				before := eng.Stats().PassesRun
				b.StartTimer()
				if _, err := eng.ScheduleReduce(ctx, prog, cfg, v); err != nil {
					b.Fatal(err)
				}
				run += eng.Stats().PassesRun - before
			}
			b.ReportMetric(float64(run)/float64(b.N), "passes/op")
		})
	}
}

// findViolatingSeed scans fuzzed programs for one whose check reports at
// least one violation, so the cross-validation test and benchmark have
// real work. Shared by TestCrossValidateSharesExecution and
// BenchmarkCrossValidate so both probe the same corpus the same way.
func findViolatingSeed(tb testing.TB, cfg pokeholes.Config) (*minic.Program, *pokeholes.Report) {
	tb.Helper()
	eng := pokeholes.NewEngine()
	for seed := int64(1); seed < 200; seed++ {
		prog := pokeholes.GenerateProgram(seed)
		r, err := eng.Check(context.Background(), prog, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if len(r.Violations) > 0 {
			return prog, r
		}
	}
	tb.Fatal("no violating program in the probe seed range")
	return nil, nil
}

// BenchmarkCrossValidate pins the tentpole claim end to end: the paper's
// §4.2 pipeline checks a binary and cross-validates its violations in the
// other debugger engine. The single-pass session layer records both engine
// views from ONE VM execution; the legacy shape — still measurable through
// the public facade — re-executes the binary under the second engine.
// Both sub-benchmarks run on a fresh engine per iteration (cold caches)
// and report their measured vm-executions/op: 1 vs 2 per binary.
func BenchmarkCrossValidate(b *testing.B) {
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	prog, report := findViolatingSeed(b, cfg)
	violations := report.Violations
	ctx := context.Background()

	b.Run("single-pass", func(b *testing.B) {
		var executions int64
		for i := 0; i < b.N; i++ {
			eng := pokeholes.NewEngine()
			if _, err := eng.Check(ctx, prog, cfg); err != nil {
				b.Fatal(err)
			}
			for _, v := range violations {
				if _, err := eng.CrossValidate(ctx, prog, cfg, v); err != nil {
					b.Fatal(err)
				}
			}
			executions += eng.Stats().Traces
		}
		b.ReportMetric(float64(executions)/float64(b.N), "vm-executions/op")
	})
	b.Run("two-pass-legacy", func(b *testing.B) {
		// The pre-Recorder shape: one recorded execution for the check,
		// then a second full execution under the other debugger engine.
		other, err := pokeholes.DebuggerByName("lldb")
		if err != nil {
			b.Fatal(err)
		}
		var executions int64
		for i := 0; i < b.N; i++ {
			eng := pokeholes.NewEngine()
			if _, err := eng.Check(ctx, prog, cfg); err != nil {
				b.Fatal(err)
			}
			exe, err := eng.Compile(ctx, prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := pokeholes.RecordTrace(exe, other)
			if err != nil {
				b.Fatal(err)
			}
			facts := eng.Facts(prog)
			revalidated := conjecture.CheckAll(facts, tr)
			matched := 0
			for _, v := range violations {
				for _, got := range revalidated {
					if got.Key() == v.Key() {
						matched++
						break
					}
				}
			}
			crossValidateMatches += matched
			executions += eng.Stats().Traces + 1 // + the manual second pass
		}
		b.ReportMetric(float64(executions)/float64(b.N), "vm-executions/op")
	})
}

// BenchmarkCheckCachedVsCold quantifies what the compile cache buys on
// repeated checks of one program (the Check->Triage->Minimize baseline).
func BenchmarkCheckCachedVsCold(b *testing.B) {
	prog := pokeholes.GenerateProgram(7)
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	b.Run("cold", func(b *testing.B) {
		eng := pokeholes.NewEngine(pokeholes.WithCompileCache(0))
		for i := 0; i < b.N; i++ {
			if _, err := eng.Check(context.Background(), prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := pokeholes.NewEngine()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Check(context.Background(), prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreColdVsDiskLoad measures the artifact-store trade: a cold
// compilation (frontend + backend) against a disk load of the same build
// (container decode) from a pre-warmed store. Each iteration uses a fresh
// engine so the memory cache serves neither side; the only difference is
// where the build comes from.
func BenchmarkStoreColdVsDiskLoad(b *testing.B) {
	ctx := context.Background()
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	prog := pokeholes.GenerateProgram(7)
	dir := b.TempDir()
	warm := pokeholes.NewEngine(pokeholes.WithArtifactStore(dir))
	if serr := warm.Stats().StoreError; serr != "" {
		b.Fatalf("artifact store: %s", serr)
	}
	if _, err := warm.Compile(ctx, prog, cfg); err != nil {
		b.Fatal(err)
	}
	b.Run("cold_compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pokeholes.NewEngine().Compile(ctx, prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disk_load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := pokeholes.NewEngine(pokeholes.WithArtifactStore(dir))
			if _, err := eng.Compile(ctx, prog, cfg); err != nil {
				b.Fatal(err)
			}
			if n := eng.Stats().Compiles; n != 0 {
				b.Fatalf("disk_load iteration compiled %d times, want 0", n)
			}
		}
	})
}
