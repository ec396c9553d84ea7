// Command paperbench regenerates the paper's tables and figures at
// configurable scale and prints them as text, or as machine-readable JSON
// with -json. Experiments run on an Engine session whose worker pool
// parallelizes each campaign.
//
// Usage:
//
//	paperbench [-exp all|fig1|tab1|fig23|tab2|tab3|tab4|fig4|regress|matrix|hunt|herd]
//	           [-matrix] [-n 200] [-seed 1] [-workers 0] [-cache 4096] [-json]
//
// -matrix (or -exp matrix) runs the full version × level grid of both
// families as one Engine.Sweep matrix campaign per family: every program
// is lowered exactly once for its whole grid. -exp hunt runs a budgeted
// deduplicated Engine.Hunt and prints the unique-bugs-over-time curve.
// -exp herd runs the distributed-hunting scaling experiment
// (experiments.ScalingCurve): the same total fuzzing budget spent by 1,
// 4 and 16 sharded replicas, their corpora merged via corpus.Merge, as
// merged-unique-buckets-over-wall-clock curves.
//
// Performance is measured elsewhere: the repository's benchmark is
// cmd/conjbench, and per-stage timings are `go test -bench` benchmarks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/experiments"
)

// experimentJSON is one -json record: identity, wall time, and the
// experiment-specific payload.
type experimentJSON struct {
	Experiment  string  `json:"experiment"`
	Programs    int     `json:"programs"`
	Seed        int64   `json:"seed"`
	WallSeconds float64 `json:"wall_seconds"`
	Payload     any     `json:"payload,omitempty"`
}

type reportJSON struct {
	Experiments []experimentJSON      `json:"experiments"`
	Engine      pokeholes.EngineStats `json:"engine"`
	Workers     int                   `json:"workers"`
	TotalWallS  float64               `json:"total_wall_seconds"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1, tab1, fig23, tab2, tab3, tab4, fig4, regress, matrix, hunt, herd, all")
	matrix := flag.Bool("matrix", false, "run the full version × level matrix sweep of both families (alone: only the matrix; with -exp: in addition)")
	n := flag.Int("n", 200, "number of fuzzed programs (paper: 1000 for tables, 5000 for fig1)")
	nTriage := flag.Int("ntriage", 10, "programs for the triage table (expensive)")
	seed := flag.Int64("seed", 1, "first seed")
	workers := flag.Int("workers", 0, "campaign worker-pool size (0: GOMAXPROCS)")
	cacheSize := flag.Int("cache", pokeholes.DefaultCacheSize, "compile-cache entries (0 disables)")
	jsonOut := flag.Bool("json", false, "emit machine-readable per-experiment results on stdout")
	flag.Parse()
	// A bare -matrix means "just the matrix", not "everything plus the
	// matrix"; an explicitly passed -exp selection (including "all") keeps
	// running alongside it.
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			expSet = true
		}
	})
	if *matrix && !expSet {
		*exp = "matrix"
	}

	var opts []pokeholes.Option
	if *workers > 0 {
		opts = append(opts, pokeholes.WithWorkers(*workers))
	}
	opts = append(opts, pokeholes.WithCompileCache(*cacheSize))
	eng := pokeholes.NewEngine(opts...)
	runner := experiments.NewRunner(eng)
	ctx := context.Background()

	var w io.Writer = os.Stdout
	if *jsonOut {
		w = io.Discard
	}
	var records []experimentJSON
	t0 := time.Now()
	record := func(id string, programs int, payload any, start time.Time) {
		records = append(records, experimentJSON{
			Experiment: id, Programs: programs, Seed: *seed,
			WallSeconds: time.Since(start).Seconds(), Payload: payload})
	}
	run := func(id string) bool { return *exp == "all" || *exp == id }

	if run("fig1") {
		start := time.Now()
		cells, err := runner.Figure1(ctx, *n/4, *seed, w)
		if err != nil {
			fatal(err)
		}
		record("fig1", *n/4, cells, start)
		fmt.Fprintln(w)
	}
	var gc, cl *experiments.LevelViolations
	if run("tab1") || run("fig23") {
		start := time.Now()
		var err error
		gc, cl, err = runner.Table1(ctx, *n, *seed, w)
		if err != nil {
			fatal(err)
		}
		if run("tab1") {
			record("tab1", *n, map[string]any{
				"cl_unique": [3]int{cl.Unique(1), cl.Unique(2), cl.Unique(3)},
				"gc_unique": [3]int{gc.Unique(1), gc.Unique(2), gc.Unique(3)},
				"cl_clean":  cl.CleanPrograms,
				"gc_clean":  gc.CleanPrograms,
			}, start)
		}
		fmt.Fprintln(w)
	}
	if run("fig23") {
		start := time.Now()
		fmt.Fprintln(w, "Figure 2 (cl):")
		experiments.Figure23(cl, w)
		fmt.Fprintln(w, "Figure 3 (gc):")
		experiments.Figure23(gc, w)
		record("fig23", *n, map[string]any{
			"cl": experiments.LevelSetDistribution(cl),
			"gc": experiments.LevelSetDistribution(gc),
		}, start)
		fmt.Fprintln(w)
	}
	if run("tab2") {
		start := time.Now()
		rows, err := runner.Table2(ctx, *nTriage, *seed, w)
		if err != nil {
			fatal(err)
		}
		record("tab2", *nTriage, rows, start)
		fmt.Fprintln(w)
	}
	if run("tab3") {
		start := time.Now()
		experiments.Table3(w)
		record("tab3", 0, nil, start)
		fmt.Fprintln(w)
	}
	if run("tab4") {
		start := time.Now()
		rows, err := runner.Table4(ctx, *n/2, *seed, w)
		if err != nil {
			fatal(err)
		}
		record("tab4", *n/2, rows, start)
		fmt.Fprintln(w)
	}
	if run("fig4") {
		start := time.Now()
		if err := runner.Figure4(ctx, *n/2, *seed, w); err != nil {
			fatal(err)
		}
		record("fig4", *n/2, nil, start)
		fmt.Fprintln(w)
	}
	if run("hunt") {
		start := time.Now()
		rep, err := runner.HuntCurve(ctx, pokeholes.HuntSpec{
			Family: pokeholes.GC, Version: "trunk", Budget: *n, Seed0: *seed}, w)
		if err != nil {
			fatal(err)
		}
		record("hunt", *n, map[string]any{
			"curve": rep.Curve, "buckets": rep.Corpus.Len(),
			"violations": rep.Violations, "dups": rep.Dups,
		}, start)
		fmt.Fprintln(w)
	}
	if run("herd") {
		start := time.Now()
		// A fixed small budget keeps every fleet size under the adaptive-
		// weight warmup per replica, the regime where the curves are
		// comparable point-for-point (same program per seed at any fleet
		// size); it must divide by every fleet size.
		res, err := runner.ScalingCurve(ctx, pokeholes.HuntSpec{
			Family: pokeholes.GC, Version: "trunk", Levels: []string{"O2"},
			Budget: 32, Seed0: *seed, BatchSize: 8}, []int{1, 4, 16}, w)
		if err != nil {
			fatal(err)
		}
		record("herd", 32*len(res.Series), res, start)
		fmt.Fprintln(w)
	}
	if *matrix || *exp == "matrix" {
		start := time.Now()
		payload := map[string]any{}
		for _, fam := range []pokeholes.Family{pokeholes.CL, pokeholes.GC} {
			vers := pokeholes.Versions(fam)
			byVer, err := runner.MatrixSweep(ctx, fam, vers, *n, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(w, "Matrix (%s): unique violations per version across all optimizing levels, %d programs\n", fam, *n)
			fmt.Fprintf(w, "%-10s %6s %6s %6s\n", "version", "C1", "C2", "C3")
			famPayload := map[string][3]int{}
			for _, ver := range vers {
				lv := byVer[ver]
				counts := [3]int{lv.Unique(1), lv.Unique(2), lv.Unique(3)}
				famPayload[ver] = counts
				fmt.Fprintf(w, "%-10s %6d %6d %6d\n", ver, counts[0], counts[1], counts[2])
			}
			payload[string(fam)] = famPayload
		}
		record("matrix", *n, payload, start)
		fmt.Fprintln(w)
	}
	if run("regress") {
		start := time.Now()
		t1, p1, og, err := runner.RegressionAvailability(ctx, *n/4, *seed, w)
		if err != nil {
			fatal(err)
		}
		payload := map[string]float64{"trunk_o1": t1, "patched_o1": p1, "og_reference": og}
		if og > t1 {
			closed := (p1 - t1) / (og - t1)
			payload["gap_closed"] = closed
			fmt.Fprintf(w, "the patch closes %.0f%% of the O1 -> Og availability gap (paper: ~50%%)\n", closed*100)
		}
		record("regress", *n/4, payload, start)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reportJSON{
			Experiments: records,
			Engine:      eng.Stats(),
			Workers:     *workers,
			TotalWallS:  time.Since(t0).Seconds(),
		}); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
