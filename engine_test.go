package pokeholes_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/experiments"
)

// campaignFingerprint reduces a campaign's result stream to a comparable
// form: the ordered list of (index, seed, level, violation-key) plus the
// violation multiset.
func campaignFingerprint(t *testing.T, eng *pokeholes.Engine, spec pokeholes.CampaignSpec) ([]string, map[string]int) {
	t.Helper()
	results, err := eng.Campaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var ordered []string
	multiset := map[string]int{}
	next := 0
	for res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Index != next {
			t.Fatalf("out-of-order result: got index %d, want %d", res.Index, next)
		}
		next++
		var levels []string
		for l := range res.Violations {
			levels = append(levels, l)
		}
		sort.Strings(levels)
		for _, level := range levels {
			for _, v := range res.Violations[level] {
				key := fmt.Sprintf("seed%d|%s|%s", res.Seed, level, v.Key())
				ordered = append(ordered, key)
				multiset[key]++
			}
		}
	}
	if next != spec.N {
		t.Fatalf("got %d results, want %d", next, spec.N)
	}
	return ordered, multiset
}

// TestCampaignParallelMatchesSerial is the determinism contract: a campaign
// over 8 workers must yield the same ordered stream and the same violation
// multiset as a serial run. Run under -race this also exercises the cache
// and worker pool for data races.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	spec := pokeholes.CampaignSpec{Family: pokeholes.GC, Version: "trunk", N: 12, Seed0: 500}
	serialOrder, serialSet := campaignFingerprint(t, pokeholes.NewEngine(pokeholes.WithWorkers(1)), spec)
	parallelOrder, parallelSet := campaignFingerprint(t, pokeholes.NewEngine(pokeholes.WithWorkers(8)), spec)
	if !reflect.DeepEqual(serialOrder, parallelOrder) {
		t.Errorf("ordered violation streams differ:\nserial:   %v\nparallel: %v", serialOrder, parallelOrder)
	}
	if !reflect.DeepEqual(serialSet, parallelSet) {
		t.Errorf("violation multisets differ:\nserial:   %v\nparallel: %v", serialSet, parallelSet)
	}
	if len(serialSet) == 0 {
		t.Error("campaign found no violations at all; the comparison is vacuous")
	}
}

// TestTable1DeterministicAcrossWorkers pins the acceptance criterion:
// Table 1 output is byte-identical between a serial and an 8-worker run.
func TestTable1DeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer
		r := experiments.NewRunner(pokeholes.NewEngine(pokeholes.WithWorkers(workers)))
		if _, _, err := r.Table1(context.Background(), 10, 500, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("Table 1 differs across worker counts:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestCacheHitSecondCheckDoesNotRecompile asserts the compile counter does
// not move on a repeated Check of the same program and configuration.
func TestCacheHitSecondCheckDoesNotRecompile(t *testing.T) {
	eng := pokeholes.NewEngine()
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(3)
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	first, err := eng.Check(ctx, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiles := eng.Stats().Compiles
	if compiles == 0 {
		t.Fatal("first Check performed no compilation")
	}
	second, err := eng.Check(ctx, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Compiles; got != compiles {
		t.Errorf("second Check recompiled: %d -> %d compiles", compiles, got)
	}
	if !reflect.DeepEqual(first.Violations, second.Violations) {
		t.Error("cached Check returned different violations")
	}
	// A clone-equivalent program (same canonical source) must also hit.
	reparsed, err := pokeholes.ParseProgram(pokeholes.Render(prog))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Check(ctx, reparsed, cfg); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Compiles; got != compiles {
		t.Errorf("re-parsed identical source recompiled: %d -> %d compiles", compiles, got)
	}
}

// findTriagedViolation scans fuzzed programs for a violation with a
// successfully triaged culprit, so the flow test below is deterministic.
func findTriagedViolation(t *testing.T, eng *pokeholes.Engine) (seed int64, cfg pokeholes.Config, v pokeholes.Violation, culprit string) {
	t.Helper()
	ctx := context.Background()
	cfg = pokeholes.Config{Family: pokeholes.CL, Version: "trunk", Level: "Og"}
	for seed = 1000; seed < 1100; seed++ {
		prog := pokeholes.GenerateProgram(seed)
		report, err := eng.Check(ctx, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range report.Violations {
			c, err := eng.Triage(ctx, prog, cfg, cand)
			if err == nil {
				return seed, cfg, cand, c
			}
		}
	}
	t.Skip("no triagable violation in the probe seed range")
	return
}

// TestCacheEliminatesRedundantCompiles demonstrates the acceptance
// criterion on the Check -> Triage -> Minimize flow: with the cache on,
// the whole flow performs strictly fewer compilations than with the cache
// off, and repeated baselines are served from memory.
func TestCacheEliminatesRedundantCompiles(t *testing.T) {
	probe := pokeholes.NewEngine()
	seed, cfg, v, culprit := findTriagedViolation(t, probe)

	runFlow := func(eng *pokeholes.Engine) int64 {
		ctx := context.Background()
		prog := pokeholes.GenerateProgram(seed)
		if _, err := eng.Check(ctx, prog, cfg); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Triage(ctx, prog, cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		if got != culprit {
			t.Fatalf("culprit = %q, want %q", got, culprit)
		}
		eng.Minimize(ctx, prog, cfg, v, culprit)
		return eng.Stats().Compiles
	}

	uncached := runFlow(pokeholes.NewEngine(pokeholes.WithCompileCache(0)))
	cached := runFlow(pokeholes.NewEngine())
	if cached >= uncached {
		t.Errorf("cache did not reduce compilations: cached=%d uncached=%d", cached, uncached)
	}
	t.Logf("Check->Triage->Minimize compiles: uncached=%d cached=%d", uncached, cached)
}

// TestCampaignCancel verifies the stream closes promptly on cancellation
// and delivers a contiguous prefix.
func TestCampaignCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(4))
	results, err := eng.Campaign(ctx, pokeholes.CampaignSpec{
		Family: pokeholes.GC, Version: "trunk", N: 64, Seed0: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for res := range results {
		if res.Index != next {
			t.Fatalf("gap in cancelled stream: got %d, want %d", res.Index, next)
		}
		next++
		if next == 3 {
			cancel()
		}
	}
	if next == 64 {
		t.Log("campaign finished before cancellation took effect")
	}
	cancel()
}

// TestCampaignSpecValidation covers the error paths.
func TestCampaignSpecValidation(t *testing.T) {
	eng := pokeholes.NewEngine()
	ctx := context.Background()
	cases := []pokeholes.CampaignSpec{
		{Family: "frobnicator", Version: "trunk", N: 1},
		{Family: pokeholes.GC, Version: "v99", N: 1},
		{Family: pokeholes.GC, Version: "trunk", N: 0},
	}
	for _, spec := range cases {
		if _, err := eng.Campaign(ctx, spec); err == nil {
			t.Errorf("spec %+v: expected error", spec)
		}
	}
}

// TestCrossValidateSharesExecution pins the single-pass contract of the
// Recorder refactor: Check records ONE VM execution whose session carries
// both debugger views, and a subsequent CrossValidate of any violation
// reads the second view instead of re-executing — the old implementation
// needed 2 executions per binary, the new one needs 1.
func TestCrossValidateSharesExecution(t *testing.T) {
	ctx := context.Background()
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	// A program with at least one violation makes the cross-validation
	// meaningful (probe shared with BenchmarkCrossValidate).
	prog, report := findViolatingSeed(t, cfg)

	eng := pokeholes.NewEngine()
	if _, err := eng.Check(ctx, prog, cfg); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Traces; got != 1 {
		t.Fatalf("Check recorded %d executions, want 1", got)
	}
	for _, v := range report.Violations {
		if _, err := eng.CrossValidate(ctx, prog, cfg, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Stats().Traces; got != 1 {
		t.Errorf("Check + CrossValidate recorded %d executions, want 1 (single pass)", got)
	}

	// Both views are exposed through TraceAll, and the primary view is
	// exactly what Check reported on.
	mt, err := eng.TraceAll(ctx, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Views) != 2 || mt.Views[0] == mt.Views[1] {
		t.Fatalf("TraceAll: want 2 distinct views, got %v", mt.Engines)
	}
	if !reflect.DeepEqual(mt.Views[0], report.Trace) {
		t.Error("TraceAll primary view differs from the Check trace")
	}
	if got := eng.Stats().Traces; got != 1 {
		t.Errorf("TraceAll re-recorded: %d executions, want 1", got)
	}
}

// TestMeasureSharesReference asserts that measuring two levels of one
// program traces the O0 reference only once.
func TestMeasureSharesReference(t *testing.T) {
	eng := pokeholes.NewEngine()
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(7)
	if _, err := eng.Measure(ctx, prog, pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}); err != nil {
		t.Fatal(err)
	}
	traces := eng.Stats().Traces // O0 + O2
	if _, err := eng.Measure(ctx, prog, pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O3"}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Traces; got != traces+1 {
		t.Errorf("second Measure recorded %d traces, want exactly 1 more (O3 only)", got-traces)
	}
}

// TestCheckReportsStackOverflow runs unbounded recursion through Check on
// an engine without a compile cache, so no cache flight stands between the
// VM and the caller: the check must fail with the VM's stack-overflow
// error, not panic.
func TestCheckReportsStackOverflow(t *testing.T) {
	prog, err := pokeholes.ParseProgram(`
int f(int n) {
  if (n == 0) { return 0; }
  return f(n - 1) + 1;
}
int main(void) { return f(100000); }`)
	if err != nil {
		t.Fatal(err)
	}
	eng := pokeholes.NewEngine(pokeholes.WithCompileCache(0))
	_, err = eng.Check(context.Background(), prog,
		pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O0"})
	if err == nil || !strings.Contains(err.Error(), "vm: stack overflow in f") {
		t.Fatalf("err = %v, want the VM's stack overflow", err)
	}
}
