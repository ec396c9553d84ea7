package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCarriesStall is the coordinated-omission check: one request
// stalls the only connection for 200 ms, and every request that fell due
// during the stall must carry the rest of it in its latency, because
// latency runs from the due time, not from when the request got sent.
func TestOpenLoopCarriesStall(t *testing.T) {
	const (
		rate    = 100 // one request every 10 ms
		n       = 40
		stalled = 4
		stall   = 200 * time.Millisecond
	)
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stalled+1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	client := ts.Client()
	due := uniformSchedule(n, rate)
	res := openLoop(context.Background(), due, 1, func(ctx context.Context, i, lane int) error {
		resp, err := client.Get(ts.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body)
		return err
	})
	for i, err := range res.errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// The stall began no earlier than its request's due time, so request j
	// cannot finish before due[stalled]+stall.
	for j := stalled; j < n; j++ {
		floor := due[stalled] + stall - due[j]
		if floor <= 0 {
			break
		}
		if res.latency[j] < floor {
			t.Errorf("request %d: latency %v, but it waited behind the stall for at least %v", j, res.latency[j], floor)
		}
	}
	lat := make([]float64, n)
	lags := make([]float64, n)
	for i := range lat {
		lat[i], lags[i] = ms(res.latency[i]), ms(res.lag[i])
	}
	if p99 := Percentile(lat, 99); p99 < 150 {
		t.Errorf("p99 %.1f ms hides the 200 ms stall", p99)
	}
	// The generator itself never waits for the connection, so it stays on
	// schedule through the stall.
	if lag := Percentile(lags, 99); lag > 100 {
		t.Errorf("generator lag p99 %.1f ms: dispatch blocked behind the stall", lag)
	}
	// About 20 requests fall due during the stall and queue up; the queue
	// has drained by the time the last request falls due.
	if res.backlogMax < 10 {
		t.Errorf("backlog max %d, want the ~20 requests queued behind the stall", res.backlogMax)
	}
	if res.backlogEnd > 2 {
		t.Errorf("backlog at end %d, want the stall drained", res.backlogEnd)
	}
	if res.sent != n {
		t.Errorf("sent %d of %d", res.sent, n)
	}
}

// TestOpenLoopStopsOnCancel checks that a cancelled generator stops
// dispatching and still waits for what it sent.
func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	res := openLoop(ctx, uniformSchedule(100, 100), 2, func(ctx context.Context, i, lane int) error {
		if i == 2 {
			cancel()
		}
		done.Add(1)
		return nil
	})
	if res.sent >= 100 || int(done.Load()) != res.sent {
		t.Errorf("sent %d, finished %d: want dispatch stopped and every sent request finished", res.sent, done.Load())
	}
}
