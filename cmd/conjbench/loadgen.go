package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is one open-loop step.
type loadResult struct {
	// latency[i] runs from request i's due time to the end of its
	// response, so a request queued behind a stall carries the stall
	// (no coordinated omission).
	latency []time.Duration
	errs    []error
	// lag[i] is how late the generator itself dispatched request i.
	lag []time.Duration
	// backlogMax is the most requests ever due but not yet started;
	// backlogEnd is that count when the last request fell due.
	backlogMax, backlogEnd int
	// sent counts the requests dispatched: all of them unless ctx was
	// cancelled first.
	sent int
}

// openLoop sends len(due) requests, request i at due[i] after the start,
// over conns concurrent connections, whether or not earlier requests have
// finished. send runs request i on connection lane; openLoop returns once
// every dispatched request has finished. Cancelling ctx stops dispatching.
func openLoop(ctx context.Context, due []time.Duration, conns int, send func(ctx context.Context, i, lane int) error) loadResult {
	res := loadResult{
		latency: make([]time.Duration, len(due)),
		errs:    make([]error, len(due)),
		lag:     make([]time.Duration, len(due)),
	}
	start := time.Now()
	queue := make(chan int, len(due)) // one slot per request: dispatch never blocks
	var started atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < conns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				res.errs[i] = send(ctx, i, lane)
				res.latency[i] = time.Since(start.Add(due[i]))
			}
		}()
	}
dispatch:
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			}
		}
		res.lag[i] = time.Since(at)
		queue <- i
		res.sent++
		res.backlogMax = max(res.backlogMax, res.sent-int(started.Load()))
	}
	res.backlogEnd = res.sent - int(started.Load())
	close(queue)
	wg.Wait()
	return res
}

// closedLoop sends requests 0, 1, ... over conns connections, each
// connection sending its next request as soon as its previous one is
// answered, until until or, when limit is not negative, until limit have
// been sent. send runs request i on connection lane. closedLoop returns
// once every sent request has finished, with the number sent.
func closedLoop(ctx context.Context, conns int, until time.Time, limit int, send func(ctx context.Context, i, lane int)) int {
	var next, sent atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < conns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(until) {
				i := int(next.Add(1) - 1)
				if limit >= 0 && i >= limit {
					return
				}
				send(ctx, i, lane)
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(sent.Load())
}

// uniformSchedule is n due times at a constant rate per second.
func uniformSchedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}
