package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// loadOp is one serving request, drawing its choices from the calling
// client's rng. It returns an error when the request failed or its
// output was wrong.
type loadOp func(ctx context.Context, rng *rand.Rand) error

// loadStats is what a load phase measured.
type loadStats struct {
	done, failed int64
	// latencies in milliseconds (open loop: from when each request
	// was due).
	latencies []float64
	// lateness in milliseconds: how long after its due time the
	// generator released each open-loop request.
	lateness []float64
	firstErr error
	// at holds, aligned with latencies, each request's completion time
	// (closed loop) or due time (open loop) since the phase started;
	// span is the phase's planned length.
	at   []time.Duration
	span time.Duration
}

func (l *loadStats) merge(o *loadStats) {
	l.done += o.done
	l.failed += o.failed
	l.latencies = append(l.latencies, o.latencies...)
	l.at = append(l.at, o.at...)
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func (l *loadStats) record(err error, lat, at time.Duration) {
	l.done++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	l.latencies = append(l.latencies, float64(lat)/1e6)
	l.at = append(l.at, at)
}

// Windows the load figures are taken in. Each figure is the median
// over the phase's whole windows, so a burst of interference from
// outside the process moves a window or two, not the figure.
const (
	rateWindow    = 250 * time.Millisecond
	latencyWindow = time.Second
)

// windows splits the latencies into the phase's whole windows of w by
// their time stamps (one window when the phase is shorter than w).
func (l *loadStats) windows(w time.Duration) [][]float64 {
	out := make([][]float64, max(1, int(l.span/w)))
	for i, at := range l.at {
		if k := int(at / w); k < len(out) {
			out[k] = append(out[k], l.latencies[i])
		}
	}
	return out
}

// rps is completed requests per second: the median over rateWindow
// windows.
func (l *loadStats) rps() float64 {
	var counts []float64
	for _, w := range l.windows(rateWindow) {
		counts = append(counts, float64(len(w)))
	}
	return median(counts) / rateWindow.Seconds()
}

// latency is the p-th percentile latency in milliseconds: the median
// over latencyWindow windows of the requests due in each.
func (l *loadStats) latency(p float64) float64 {
	var ps []float64
	for _, w := range l.windows(latencyWindow) {
		if len(w) > 0 {
			ps = append(ps, percentile(w, p))
		}
	}
	return median(ps)
}

// closedLoop runs workers clients back to back for d: each sends its
// next request as soon as the previous one returned.
func closedLoop(ctx context.Context, workers int, d time.Duration, seed int64, op loadOp) *loadStats {
	out := &loadStats{span: d}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*131 + int64(w)))
			local := &loadStats{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t := time.Now()
				err := op(ctx, rng)
				local.record(err, time.Since(t), time.Since(start))
			}
			mu.Lock()
			out.merge(local)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return out
}

// openLoop releases requests at a fixed rate for d, whatever the
// latency of earlier ones, and serves them with workers clients. A
// request's latency runs from its due time, so time spent queued
// behind slow requests is counted rather than omitted.
func openLoop(ctx context.Context, workers int, rate float64, d time.Duration, seed int64, op loadOp) *loadStats {
	total := int(rate * d.Seconds())
	// Buffered for every request, so the generator never waits for a
	// busy worker and stays on schedule.
	due := make(chan time.Time, total)
	out := &loadStats{span: d}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*131 + 7 + int64(w)))
			local := &loadStats{}
			for at := range due {
				err := op(ctx, rng)
				local.record(err, time.Since(at), at.Sub(start))
			}
			mu.Lock()
			out.merge(local)
			mu.Unlock()
		}(w)
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < total && ctx.Err() == nil; i++ {
		at := start.Add(time.Duration(i) * interval)
		waitUntil(at)
		out.lateness = append(out.lateness, float64(time.Since(at))/1e6)
		due <- at
	}
	close(due)
	wg.Wait()
	return out
}

// spinWindow is how long before a due time the generator stops
// sleeping and spins: a timer wakes the sleeper up to a millisecond
// late under load, and that lateness would count as service latency.
const spinWindow = time.Millisecond

// waitUntil returns at t: it sleeps until spinWindow before t, then
// yields the processor in a loop until t has passed.
func waitUntil(t time.Time) {
	if wait := time.Until(t) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
