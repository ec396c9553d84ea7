package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro"
)

// hunt: what conjhunt users run — Engine.Hunt at gc trunk over the default
// levels, minimizing every new bucket's exemplar, with no corpus file.
// Fuzzing, triage and schedule reduction of every violation, bucket
// deduplication and background minimization run together.
//
// The run is a sequence of rounds, each a fresh hunt of one batch on the
// same engine. A hunt's cost follows the violations it finds — every one
// is triaged, schedule-reduced and bucketed, every new bucket minimized —
// and one long hunt would let a lucky early batch decide the run: later
// batches open fewer buckets, so a run that got further would also get
// cheaper. Fresh rounds make every round the same kind of work, and an op
// is one violation the hunt processed, so the metrics follow the hunt's
// speed and not how many violations a seed's programs happen to hold
// (that count varies threefold between rounds; time per violation varies
// little).
//
// Hunt generates its programs from its seed cursor, so each round starts
// at a run of batch consecutive seeds whose programs all fit the run's
// input size. A fresh corpus has no feature weights, so those are the
// programs fuzzgen.GenerateSeed gives and set-up can find the runs.

const (
	huntBatch      = 16
	huntBatchSmall = 4
	// huntRounds is how many rounds set-up prepares: a 25-second run uses
	// 7 to 10 on a 2-vCPU x86-64 VM.
	huntRounds      = 16
	huntRoundsSmall = 1
	// huntScan is how many seeds set-up always examines. About one seed
	// in 170 starts a fitting run of 16, so the scan usually holds every
	// round; searching a fixed stretch keeps setup_s the same work for
	// every seed.
	huntScan = 4096
)

// huntWindows returns the first seeds of the first n non-overlapping runs
// of batch consecutive seeds of the seed's stream whose programs all fit.
// It examines at least huntScan seeds even when fewer hold all n.
func huntWindows(c *runConfig, n, batch int) []int64 {
	var out []int64
	run := 0
	base := fuzzBase(c.seed)
	for s := base; len(out) < n || s < base+huntScan; {
		in := nextInput(c, s)
		if in.fuzzSeed != s {
			run = 0 // a program in between did not fit
		}
		s = in.fuzzSeed + 1
		if run++; run == batch {
			out = append(out, s-int64(batch))
			run = 0
		}
	}
	return out[:n]
}

// huntRound is one fresh hunt of a batch starting at fuzzer seed start.
func huntRound(ctx context.Context, eng *pokeholes.Engine, start int64, batch int, progress func(pokeholes.HuntProgress)) (*pokeholes.HuntReport, error) {
	rep, err := eng.Hunt(ctx, pokeholes.HuntSpec{Family: pokeholes.GC, Version: "trunk",
		Budget: batch, BatchSize: batch, Seed0: start, Progress: progress})
	if err == nil && rep.Corpus.NextSeed != start+int64(batch) {
		err = fmt.Errorf("hunted seeds %d..%d, not the %d chosen", start, rep.Corpus.NextSeed-1, batch)
	}
	return rep, err
}

func runHunt(c *runConfig) (*result, error) {
	batch, rounds := huntBatch, huntRounds
	if c.small {
		batch, rounds = huntBatchSmall, huntRoundsSmall
	}
	ctx := context.Background()
	var eng *pokeholes.Engine
	var windows []int64
	setups, err := repeatSetup(setupReps, func() error {
		eng = pokeholes.NewEngine(pokeholes.WithWorkers(c.conns))
		windows = huntWindows(c, rounds, batch)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	eng0 := eng.Stats()
	var roundMs, encodeMs []float64
	var newSigs []string
	var newBuckets []*pokeholes.Bucket
	var shadows []huntShadow
	violations, dups, buckets := 0, 0, 0
	ph := startPhase()
	deadline := c.deadline(ph.t0)
	for r, start := range windows {
		if r > 0 && time.Now().After(deadline) {
			break
		}
		res.attempted += batch
		t := time.Now()
		var done time.Time
		var rep *pokeholes.HuntReport
		err := guard(func() (err error) {
			rep, err = huntRound(ctx, eng, start, batch, func(pokeholes.HuntProgress) { done = time.Now() })
			return err
		})
		if err != nil {
			res.failed += batch
			fmt.Printf("# hunt round %d (fuzz seed %d) failed: %v\n", r, start, err)
			continue
		}
		took := ms(done.Sub(t))
		tr.add("hunt.round", r+1, 0, 0, t, done)
		roundMs = append(roundMs, took)
		violations, dups, buckets = violations+rep.Violations, dups+rep.Dups, buckets+len(rep.NewBuckets)
		sigs := make([]string, len(rep.NewBuckets))
		for i, nb := range rep.NewBuckets {
			sigs[i] = string(nb.Sig)
		}
		newSigs = append(newSigs, strings.Join(sigs, " ; "))
		newBuckets = append(newBuckets, rep.NewBuckets...)
		if r%shadowEvery == 0 {
			shadows = append(shadows, huntShadow{r, rep.NewBuckets})
		}
		if c.trace {
			t := time.Now()
			if err := rep.Corpus.Encode(&bytes.Buffer{}); err != nil {
				return nil, err
			}
			tr.add("corpus.encode", r+1, 0, 0, t, time.Now())
			encodeMs = append(encodeMs, ms(time.Since(t)))
		}
		ph.settle()
	}
	m := ph.end()
	eng1 := eng.Stats()
	res.note("hunt: %d rounds of %d programs, %d violations (%d duplicates), %d buckets",
		len(roundMs), batch, violations, dups, buckets)
	res.noteTail("hunt round latency", roundMs)

	if c.trace {
		var d statsDelta
		d.add(eng0, eng1)
		res.setLayers(tr, d, violations, m.wall)
		res.set("cache.entries", float64(eng1.CacheEntries))
		res.set("hunt.batch_p50_ms", Median(roundMs))
		res.set("hunt.buckets", float64(buckets)/float64(max(len(roundMs), 1)))
		res.set("corpus.dup_ratio", ratio(float64(dups), float64(violations)))
		res.set("corpus.encode_ms", Mean(encodeMs))
		if err := tr.writeFile(traceFile(c)); err != nil {
			return nil, err
		}
	} else {
		res.setEndToEnd(setups, m, violations)
	}

	// Shadow: every shadowEvery-th round again on a cold engine: same new
	// buckets, same minimized exemplars.
	cold := pokeholes.NewEngine(pokeholes.WithWorkers(c.conns), pokeholes.WithCompileCache(0))
	for _, sh := range shadows {
		rep, err := huntRound(ctx, cold, windows[sh.round], batch, nil)
		if err != nil || !sameBuckets(rep.NewBuckets, sh.found) {
			res.mismatch("hunt round %d: a cold engine found different buckets or exemplars (%v)", sh.round, err)
		}
	}
	// An exemplar is stored as source; a sample of them is re-parsed and
	// checked on the cold engine. This is reported, not failed: reduction
	// can produce expressions whose rendering re-parses differently.
	reparsed := 0
	sampled := 0
	for i := 0; i < len(newBuckets); i += shadowEvery {
		sampled++
		if reproduces(ctx, cold, newBuckets[i]) {
			reparsed++
		}
	}
	res.note("exemplars re-parsed from source that still show their violation: %d of %d sampled", reparsed, sampled)
	if err := checkPinned(c, res, newSigs, func(e *expected) *[]string { return &e.Hunt }); err != nil {
		return nil, err
	}
	return res, nil
}

// huntShadow is a round sampled for the cold re-run, with the buckets it
// opened.
type huntShadow struct {
	round int
	found []*pokeholes.Bucket
}

// sameBuckets compares two rounds' new buckets by signature and exemplar.
func sameBuckets(a, b []*pokeholes.Bucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sig != b[i].Sig || a[i].Exemplar != b[i].Exemplar {
			return false
		}
	}
	return true
}

// reproduces reports whether a bucket's exemplar still violates the
// bucket's conjecture on its variable at the bucket's configuration.
func reproduces(ctx context.Context, eng *pokeholes.Engine, b *pokeholes.Bucket) bool {
	prog, err := pokeholes.ParseProgram(b.Exemplar)
	if err != nil {
		return false
	}
	rep, err := eng.Check(ctx, prog, pokeholes.Config{Family: pokeholes.Family(b.Family), Version: b.Version, Level: b.Level})
	if err != nil {
		return false
	}
	for _, v := range rep.Violations {
		if v.Conjecture == b.Conjecture && v.Var == b.Var {
			return true
		}
	}
	return false
}
