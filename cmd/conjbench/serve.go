package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
)

// serve-mixed: one in-process server (Server.Handler on a loopback
// httptest listener) under nproc connections. 60% of requests replay the
// hot set — the golden corpus's 7 programs × {check, sweep, triage,
// triage-sched}, answered from the response cache and diffed byte-for-byte
// against testdata/golden — 35% are /check and 5% /sweep on new fuzzed
// programs. It is the only workload that reads the caches heavily (source
// keying plus response-cache hits) and the only one that exercises
// admission, encoding and the server queue.
//
// The end-to-end run is a closed loop for the whole timed phase: each
// connection sends its next request as soon as its last is answered. The
// traced run is an open-loop ladder of fixed rates, timed from each
// request's due time, which gives the SLO metrics.

// serveRates is the traced run's open-loop ladder in requests per second:
// about 15%, 45% and 85% of the closed-loop capacity of this mix on 2
// connections, measured at 1760-1800 requests/s on an idle 2-vCPU x86-64
// VM (a busy host brought it down to 930). Each rate runs for a third of
// the timed phase.
var serveRates = []float64{250, 800, 1500}

const (
	// sloP99 is the latency limit max_rps_at_slo holds the p99 to.
	sloP99 = 250 * time.Millisecond
	// sloFailRate is the highest failed share a rate may have and meet
	// the SLO.
	sloFailRate = 0.01
	hotShare    = 0.60
	checkShare  = 0.35 // the remaining 5% are sweeps
	// serveSmallRequests is the requests per rate, and the cap on the
	// closed loop's requests, at -scale small.
	serveSmallRequests = 6
)

// backlogLimit is the largest client backlog at the end of a step that
// still meets the SLO: the requests due within one latency limit, a queue
// that drains within the limit. A queue that keeps growing through the
// step ends far above it.
func backlogLimit(rate float64) float64 { return rate * sloP99.Seconds() }

// serveReq is one request of the mix.
type serveReq struct {
	kind   string // "hot", "check" or "sweep"
	path   string
	body   []byte
	golden []byte // hot requests: the pinned response body
}

// goldenCheck and goldenSweep are the request shapes the golden fixtures
// were recorded with (see golden_test.go); new programs use them too.
var (
	goldenCheck = pokeholes.CheckRequest{Family: "gc", Version: "trunk", Level: "O2"}
	goldenSweep = pokeholes.SweepRequest{Family: "gc", Versions: []string{"v8", "trunk"}, Levels: []string{"O1", "O2"}}
)

// hotSet loads the golden corpus as requests with their pinned bodies.
func hotSet(root string) ([]serveReq, error) {
	srcs, err := filepath.Glob(filepath.Join(root, "testdata", "golden", "*.mc"))
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("no golden programs under %s", filepath.Join(root, "testdata", "golden"))
	}
	var out []serveReq
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		check := goldenCheck
		check.Source = string(src)
		sched := check
		sched.Schedules = true
		sweep := goldenSweep
		sweep.Source = string(src)
		base := strings.TrimSuffix(path, ".mc")
		for _, r := range []struct {
			suffix, path string
			req          any
		}{
			{"check.json", "/check", check},
			{"sweep.ndjson", "/sweep", sweep},
			{"triage.json", "/triage", check},
			{"triage-sched.json", "/triage", sched},
		} {
			body, err := json.Marshal(r.req)
			if err != nil {
				return nil, err
			}
			want, err := os.ReadFile(base + "." + r.suffix)
			if err != nil {
				return nil, err
			}
			out = append(out, serveReq{kind: "hot", path: r.path, body: body, golden: want})
		}
	}
	return out, nil
}

// freshReq is a request for a new program in the check or sweep shape.
func freshReq(kind string, in input) (serveReq, error) {
	src := pokeholes.Render(in.prog)
	var req any
	path := "/check"
	if kind == "sweep" {
		sw := goldenSweep
		sw.Source = src
		req, path = sw, "/sweep"
	} else {
		ck := goldenCheck
		ck.Source = src
		req = ck
	}
	body, err := json.Marshal(req)
	return serveReq{kind: kind, path: path, body: body}, err
}

// mix draws the seeded request stream: the kind of each request (60%
// hot, 35% check, 5% sweep), hot requests uniformly from the hot set, and
// a new program for every fresh request. Draws are serialized, so the
// n-th request drawn is the same whichever connection draws it.
type mix struct {
	mu   sync.Mutex
	c    *runConfig
	hot  []serveReq
	rng  *rand.Rand
	next int64 // next fuzzer seed
}

func newMix(c *runConfig, hot []serveReq) *mix {
	return &mix{c: c, hot: hot, rng: rand.New(rand.NewSource(c.seed)), next: fuzzBase(c.seed)}
}

func (m *mix) draw() (serveReq, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u := m.rng.Float64()
	if u < hotShare {
		return m.hot[m.rng.Intn(len(m.hot))], nil
	}
	kind := "check"
	if u >= hotShare+checkShare {
		kind = "sweep"
	}
	in := nextInput(m.c, m.next)
	m.next = in.fuzzSeed + 1
	return freshReq(kind, in)
}

// planLadder draws the traced run's requests ahead of time, one list per
// ladder rate, so the open-loop generator only dispatches.
func planLadder(c *runConfig, m *mix) ([][]serveReq, error) {
	var steps [][]serveReq
	for _, rate := range serveRates {
		n := max(int(rate*c.seconds/float64(len(serveRates))), 1)
		if c.small {
			n = serveSmallRequests
		}
		reqs := make([]serveReq, n)
		for i := range reqs {
			var err error
			if reqs[i], err = m.draw(); err != nil {
				return nil, err
			}
		}
		steps = append(steps, reqs)
	}
	return steps, nil
}

// server is one serving session under test.
type server struct {
	eng    *pokeholes.Engine
	srv    *pokeholes.Server
	ts     *httptest.Server
	client *http.Client
}

func newServer(conns int) *server {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(conns))
	srv := eng.NewServer(pokeholes.ServeSpec{})
	ts := httptest.NewServer(srv.Handler())
	return &server{eng: eng, srv: srv, ts: ts, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// exchange is one request's outcome.
type exchange struct {
	body       []byte
	status     int
	start, end time.Time
	ttfb       time.Duration
}

// do sends one request and reads its whole response.
func (s *server) do(ctx context.Context, r serveReq) (exchange, error) {
	var x exchange
	var first time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		return x, err
	}
	req.Header.Set("Content-Type", "application/json")
	x.start = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return x, err
	}
	defer resp.Body.Close()
	x.body, err = io.ReadAll(resp.Body)
	x.end = time.Now()
	x.status = resp.StatusCode
	if !first.IsZero() {
		x.ttfb = first.Sub(x.start)
	}
	return x, err
}

// check verifies one exchange: a 2xx status, and for hot requests the
// pinned body.
func (x exchange) check(r serveReq) error {
	if x.status < 200 || x.status > 299 {
		return fmt.Errorf("%s: status %d: %s", r.path, x.status, bytes.TrimSpace(x.body))
	}
	if r.golden != nil && !bytes.Equal(x.body, r.golden) {
		return fmt.Errorf("%s: hot response differs from its golden fixture", r.path)
	}
	return nil
}

// stepStats summarizes one rate of the ladder.
type stepStats struct {
	rate     float64
	load     loadResult
	failed   int
	p99      time.Duration
	byKind   map[string][]float64 // latency from due time, ms; "all" pools the kinds
	meetsSLO bool
}

// serveRun accumulates what every request of a run did; account is safe
// for concurrent use.
type serveRun struct {
	s       *server
	tr      *tracer // nil in the end-to-end run
	mu      sync.Mutex
	res     *result
	service []float64 // send-to-response latency of each successful request, ms
	ttfb    []float64
	fresh   []serveReq // every shadowEvery-th fresh request ...
	seen    [][]byte   // ... and the body the server answered it with
	nNew    int
}

// exchange sends one request, checks its response and, when tracing,
// records its client-side span.
func (sr *serveRun) exchange(ctx context.Context, r serveReq, op, lane int) (exchange, error) {
	x, err := sr.s.do(ctx, r)
	if err == nil {
		err = x.check(r)
	}
	sr.tr.add("serve."+r.kind, op, 0, lane, x.start, x.end)
	return x, err
}

// account books one finished request: a failure, or its latency and, if
// it was fresh, a sample for the shadow check.
func (sr *serveRun) account(r serveReq, x exchange, err error) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.res.attempted++
	sr.ttfb = append(sr.ttfb, ms(x.ttfb))
	if err != nil {
		sr.res.failed++
		fmt.Printf("# %s %s request failed: %v\n", r.kind, r.path, err)
		return false
	}
	if r.kind != "hot" {
		if sr.nNew%shadowEvery == 0 {
			sr.fresh, sr.seen = append(sr.fresh, r), append(sr.seen, x.body)
		}
		sr.nNew++
	}
	sr.service = append(sr.service, ms(x.end.Sub(x.start)))
	return true
}

func runServe(c *runConfig) (*result, error) {
	ctx := context.Background()
	hot, err := hotSet(c.root)
	if err != nil {
		return nil, err
	}
	var s *server
	var m *mix
	var steps [][]serveReq
	setups, err := repeatSetup(setupReps, func() (err error) {
		if s != nil {
			s.close()
		}
		s = newServer(c.conns)
		for _, r := range hot {
			x, err := s.do(ctx, r)
			if err == nil {
				err = x.check(r)
			}
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		m = newMix(c, hot)
		if c.trace {
			steps, err = planLadder(c, m)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	res := newResult()
	run := &serveRun{s: s, res: res}
	if c.trace {
		run.tr = newTracer()
		if err := serveLadder(ctx, c, steps, run); err != nil {
			return nil, err
		}
	} else {
		serveClosed(ctx, c, m, run, setups)
	}

	// Shadow: every shadowEvery-th new program again, on a server whose
	// engine and response cache are both off.
	shadow := pokeholes.NewEngine(pokeholes.WithWorkers(c.conns), pokeholes.WithCompileCache(0)).
		NewServer(pokeholes.ServeSpec{ResponseCache: -1}).Handler()
	for i, r := range run.fresh {
		rec := httptest.NewRecorder()
		shadow.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		if !bytes.Equal(rec.Body.Bytes(), run.seen[i]) {
			res.mismatch("%s of a new program: cached response differs from the cache-less one", r.path)
		}
	}
	return res, nil
}

// serveClosed is the end-to-end run's timed phase; ops_per_s is the
// server's capacity for the mix on nproc connections. Requests are drawn
// as they are sent, new programs generated on the way, so set-up stays
// short and no request list sits in the heap being measured.
func serveClosed(ctx context.Context, c *runConfig, m *mix, run *serveRun, setups []float64) {
	limit := -1
	if c.small {
		limit = serveSmallRequests
	}
	ph := startPhase()
	sent := closedLoop(ctx, c.conns, c.deadline(ph.t0), limit, func(ctx context.Context, i, lane int) {
		r, err := m.draw()
		var x exchange
		if err == nil {
			x, err = run.exchange(ctx, r, i+1, lane)
		}
		run.account(r, x, err)
	})
	run.res.setEndToEnd(setups, ph.end(), sent)
	run.res.noteTail("serve request latency", run.service)
}

// serveLadder is the traced run's timed phase: the open-loop ladder, one
// rate after another, with latency timed from each request's due time.
func serveLadder(ctx context.Context, c *runConfig, steps [][]serveReq, run *serveRun) error {
	res, s := run.res, run.s
	eng0, srv0 := s.eng.Stats(), s.srv.Stats()
	var stats []stepStats
	var lags []float64
	ph := startPhase()
	for si, reqs := range steps {
		xs := make([]exchange, len(reqs))
		op0 := res.attempted
		load := openLoop(ctx, uniformSchedule(len(reqs), serveRates[si]), c.conns, func(ctx context.Context, i, lane int) error {
			var err error
			xs[i], err = run.exchange(ctx, reqs[i], op0+i+1, lane)
			return err
		})
		st := stepStats{rate: serveRates[si], load: load, byKind: map[string][]float64{}}
		for i, r := range reqs[:load.sent] {
			if !run.account(r, xs[i], load.errs[i]) {
				st.failed++
			}
			lat := ms(load.latency[i])
			st.byKind["all"] = append(st.byKind["all"], lat)
			st.byKind[r.kind] = append(st.byKind[r.kind], lat)
			lags = append(lags, ms(load.lag[i]))
		}
		st.p99 = time.Duration(Percentile(st.byKind["all"], 99) * float64(time.Millisecond))
		st.meetsSLO = st.p99 <= sloP99 && float64(st.failed) <= sloFailRate*float64(len(reqs)) &&
			float64(load.backlogEnd) <= backlogLimit(st.rate)
		stats = append(stats, st)
		steps[si] = nil // sent: the heap is the server's, not the plan's
	}
	m := ph.end()

	maxRPS := 0.0
	backlogMax := 0
	for _, st := range stats {
		verdict := "misses"
		if st.meetsSLO {
			verdict = "meets"
			maxRPS = st.rate
		}
		backlogMax = max(backlogMax, st.load.backlogMax)
		res.noteTail(fmt.Sprintf("serve %.0f/s latency from due time", st.rate), st.byKind["all"])
		res.note("serve %.0f/s: %d requests, %d failed, backlog at end %d (max %d), p99 %.3f ms: %s the SLO (p99 <= %v, failed <= %.0f%%, backlog <= %.0f)",
			st.rate, len(st.byKind["all"]), st.failed, st.load.backlogEnd, st.load.backlogMax, ms(st.p99),
			verdict, sloP99, 100*sloFailRate, backlogLimit(st.rate))
	}
	eng1, srv1 := s.eng.Stats(), s.srv.Stats()
	var d statsDelta
	d.add(eng0, eng1)
	res.setLayers(run.tr, d, res.attempted, m.wall)
	res.set("cache.entries", float64(eng1.CacheEntries))
	// Latencies are the middle rate's; the top rate may be past a slow
	// host's capacity, where they measure its queue.
	mid := stats[len(stats)/2]
	res.set("serve.p99_ms", ms(mid.p99))
	res.set("serve.max_rps_at_slo", maxRPS)
	res.set("serve.check_p99_ms", Percentile(mid.byKind["check"], 99))
	res.set("serve.sweep_p99_ms", Percentile(mid.byKind["sweep"], 99))
	res.set("serve.hot_p50_ms", Median(mid.byKind["hot"]))
	res.set("serve.ttfb_ms", Median(run.ttfb))
	res.set("serve.rejected", float64(srv1.Rejected-srv0.Rejected))
	res.set("serve.deadline", float64(srv1.Deadline-srv0.Deadline))
	hits, misses := srv1.ResponseHits-srv0.ResponseHits, srv1.ResponseMisses-srv0.ResponseMisses
	res.set("serve.respcache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	res.set("loadgen.lag_p99_ms", Percentile(lags, 99))
	res.set("loadgen.backlog_max", float64(backlogMax))
	return run.tr.writeFile(traceFile(c))
}
