package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro"
	"repro/internal/fuzzgen"
	"repro/internal/minic"
)

// input is one generated program of a workload, with its size in bytes of
// canonical source.
type input struct {
	fuzzSeed int64
	prog     *minic.Program
	size     int
}

// Input size. The fuzzer's output is heavy-tailed: about one program in
// twenty is over 2 KB of canonical source, one in a hundred over 4 KB, and
// such a program can take tens of seconds to sweep (the optimizer's
// dominator computation grows with the CFG), so one draw would decide a
// whole timed run and the spread across seeds would hide any change. The
// workloads state an input size instead: programs of at most maxSource
// bytes, which keeps about four programs in five.
const (
	maxSource      = 1024
	maxSourceSmall = 700
)

// sourceLimit is the input-size cap of a run.
func (c *runConfig) sourceLimit() int {
	if c.small {
		return maxSourceSmall
	}
	return maxSource
}

// fuzzBase is the first fuzzer seed of a benchmark seed's input stream;
// streams of different benchmark seeds never overlap.
func fuzzBase(seed int64) int64 { return seed * 1_000_000 }

// nextInput returns the first program at or after fuzzer seed from that
// fits the run's input size.
func nextInput(c *runConfig, from int64) input {
	for fs := from; ; fs++ {
		p := fuzzgen.GenerateSeed(fs)
		if n := len(minic.Render(p)); n <= c.sourceLimit() {
			return input{fs, p, n}
		}
	}
}

// inputSeeds returns the fuzzer seeds of the first n fitting programs of
// the seed's stream, in stratified order. A workload that needs many
// programs keeps only their seeds and regenerates each program when it
// uses it, so the benchmark's own inputs do not inflate the heap it
// measures.
func inputSeeds(c *runConfig, n int) []int64 {
	seeds := make([]int64, 0, n)
	sizes := make([]int, 0, n)
	next := fuzzBase(c.seed)
	for len(seeds) < n {
		in := nextInput(c, next)
		seeds, sizes = append(seeds, in.fuzzSeed), append(sizes, in.size)
		next = in.fuzzSeed + 1
	}
	return stratify(seeds, sizes)
}

// sizeStrata is how many size classes stratify deals inputs from.
const sizeStrata = 8

// stratify reorders items so that every sizeStrata consecutive items hold
// one item of each size class: items are ranked by size, the ranks cut
// into sizeStrata classes of equal count, and the classes dealt out in
// turn, each in its own (seeded) stream order. An op's cost follows its
// program's size (correlation about 0.65 on grid-cold and report), so a
// timed phase that stops after any number of ops has seen the same mix of
// sizes whatever the seed and however fast the host ran.
func stratify[T any](items []T, sizes []int) []T {
	rank := make([]int, len(items))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return sizes[rank[a]] < sizes[rank[b]] })
	class := make([]int, len(items))
	for r, i := range rank {
		class[i] = r * sizeStrata / len(items)
	}
	classes := make([][]T, sizeStrata)
	for i, it := range items {
		classes[class[i]] = append(classes[class[i]], it)
	}
	out := make([]T, 0, len(items))
	for j := 0; len(out) < len(items); j++ {
		for _, cl := range classes {
			if j < len(cl) {
				out = append(out, cl[j])
			}
		}
	}
	return out
}

// repeatSetup runs setup reps times and returns each run's wall time in
// seconds; the state the last run built is the one the workload uses.
// Timing several set-ups lets setup_s be a median.
func repeatSetup(reps int, setup func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return secs, nil
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// phase measures a timed phase: its wall time and the heap it keeps.
type phase struct {
	t0   time.Time
	heap *heapSampler
	// settled are the live heaps settle read; paused the time its
	// collections took, left out of the phase.
	settled []float64
	paused  time.Duration
}

func startPhase() *phase {
	return &phase{t0: time.Now(), heap: startHeapSampler()}
}

// settle collects garbage between two ops and reads the live heap: what
// the workload retains from one op to the next. A workload whose ops are
// long and hold a working set as large as what it retains (hunt: the live
// heap swings between 50 and 250 MB within a round) calls it after every
// op; the phase's heap is then the median of these readings, and the
// collections' time is not part of the phase.
func (p *phase) settle() {
	t := time.Now()
	runtime.GC()
	p.settled = append(p.settled, liveHeapMB())
	p.paused += time.Since(t)
}

// measured is what a closed phase measured.
type measured struct {
	wall   time.Duration
	heapMB float64
}

// end closes the phase.
func (p *phase) end() measured {
	m := measured{wall: time.Since(p.t0) - p.paused, heapMB: p.heap.retainedMB()}
	if len(p.settled) > 0 {
		m.heapMB = Median(p.settled)
	}
	return m
}

// heapSampler reads the live heap — the bytes the latest garbage
// collection found reachable — every heapEvery while a timed phase runs.
// The caches fill early in a phase; the median over its last three
// quarters is the heap the workload keeps, and it averages over many cache
// generations where one reading at the end would depend on the last few
// inputs.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

const heapEvery = 50 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.mb = append(h.mb, liveHeapMB())
			}
		}
	}()
	return h
}

// retainedMB stops the sampler and returns the median live heap over the
// last three quarters of the samples.
func (h *heapSampler) retainedMB() float64 {
	close(h.stop)
	<-h.done
	if len(h.mb) == 0 {
		return liveHeapMB()
	}
	return Median(h.mb[len(h.mb)/4:])
}

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// setEndToEnd fills the metrics every workload reports from its timed
// phase of ops ops: the set-up time, ops completed over wall time and the
// retained heap.
func (r *result) setEndToEnd(setups []float64, m measured, ops int) {
	r.set("setup_s", Median(setups))
	r.set("ops_per_s", float64(ops)/m.wall.Seconds())
	r.set("retained_heap_mb", m.heapMB)
	r.note("setup_s: median of %d set-ups, spread %.1f%%", len(setups), 100*Spread(setups))
}

// noteTail prints a latency sample's median, p90 and percentile-rule tail.
func (r *result) noteTail(what string, lat []float64) {
	line := fmt.Sprintf("%s: n=%d p50 %.3f ms p90 %.3f ms", what, len(lat), Median(lat), Percentile(lat, 90))
	if t, ok := TailOf(lat); ok {
		line += " tail " + t.String()
	}
	r.notes = append(r.notes, line)
}

// guard runs one op and turns a panic into an error, so a crashing op
// counts as failed instead of ending the run.
func guard(op func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return op()
}

// digestViolations fingerprints sweeps' reports with digestReports.
func digestViolations(srs ...*pokeholes.SweepResult) string {
	var cfgs []pokeholes.Config
	var viols [][]pokeholes.Violation
	for _, sr := range srs {
		cfgs = append(cfgs, sr.Configs...)
		for _, rep := range sr.Reports {
			viols = append(viols, rep.Violations)
		}
	}
	return digestReports(cfgs, viols)
}

// digestReports fingerprints every configuration with its violation keys,
// in report order.
func digestReports(cfgs []pokeholes.Config, viols [][]pokeholes.Violation) string {
	h := fnv.New64a()
	for i, cfg := range cfgs {
		fmt.Fprintf(h, "%s\n", cfg)
		for _, v := range viols[i] {
			fmt.Fprintf(h, "%s\n", v.Key())
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
