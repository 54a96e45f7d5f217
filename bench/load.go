package main

import (
	"syscall"
	"time"

	"diffusearch/bench/kit"
	"diffusearch/internal/randx"
	"diffusearch/internal/stats"
)

// loadResult is the read load of one run: loadRounds rounds, each an
// open-loop phase at the workload's Poisson rate followed by a closed-loop
// phase at its in-flight count. The samples are in issue order.
type loadResult struct {
	open, closed []kit.Sample
	closedQPS    []float64 // per round: correct completions per second
	start, end   time.Time // the timed phases
}

// runLoad drives do through the rounds. do receives the request's index in
// the run's request stream and the instant it was due, and reports whether
// the answer was correct. enter and leave, when not nil, run before and
// after every phase.
func runLoad(c *runCtx, spec loadSpec, do func(i int, due time.Time) bool, enter, leave func(open bool)) loadResult {
	arrivals := randx.Derive(c.seed, c.name, "arrivals")
	hook := func(f func(bool), open bool) {
		if f != nil {
			f(open)
		}
	}
	lr := loadResult{start: time.Now()}
	next := 0 // index of the next request
	for round := 0; round < loadRounds && c.ctx.Err() == nil; round++ {
		due := kit.PoissonSchedule(arrivals, spec.openRate, c.openDur()/loadRounds)
		hook(enter, true)
		t0 := time.Now()
		lr.open = append(lr.open, kit.OpenLoop(c.ctx, due, func(i int) bool {
			return do(next+i, t0.Add(due[i]))
		})...)
		hook(leave, true)
		next += len(due)

		hook(enter, false)
		t0 = time.Now()
		closed := kit.ClosedLoop(c.ctx, spec.inflight, c.closedDur()/loadRounds, func(i int) bool {
			return do(next+i, time.Now())
		})
		wall := time.Since(t0)
		hook(leave, false)
		next += len(closed)
		ok := 0
		for _, s := range closed {
			if s.OK {
				ok++
			}
		}
		lr.closed = append(lr.closed, closed...)
		lr.closedQPS = append(lr.closedQPS, float64(ok)/wall.Seconds())
	}
	lr.end = time.Now()
	return lr
}

// loadMetrics fills what every request-serving workload reports the same
// way: the open-loop latency percentiles (timed from due time, over the
// requests that returned a correct answer, least disturbed slice), the
// closed-loop throughput (median round), and the driver's own layer.
func loadMetrics(m *measurement, spec loadSpec, lr loadResult) {
	var lat, late []float64
	good := 0
	for _, s := range lr.open {
		late = append(late, s.LatenessMS())
		if !s.OK {
			continue
		}
		lat = append(lat, s.LatencyMS())
		if s.LatencyMS() <= spec.limitMS {
			good++
		}
	}
	okClosed := 0
	for _, s := range lr.closed {
		if s.OK {
			okClosed++
		}
	}
	sent := len(lr.open) + len(lr.closed)
	m.attempted += sent
	m.failed += sent - len(lat) - okClosed

	m.e2e["latency_p50_ms"] = kit.QuietSlice(lat, loadRounds, 50)
	m.e2e["latency_p90_ms"] = kit.QuietSlice(lat, loadRounds, 90)
	m.e2e["throughput_qps"] = stats.Median(lr.closedQPS)
	m.samples["latency_p50_ms"], m.samples["latency_p90_ms"] = len(lat), len(lat)
	m.samples["throughput_qps"] = okClosed

	tail := kit.TailOf(lat)
	m.layer["driver.sent"] = float64(sent)
	m.layer["driver.ok"] = float64(len(lat) + okClosed)
	m.layer["driver.failed"] = float64(sent - len(lat) - okClosed)
	m.layer["driver.lateness_p90_ms"] = stats.Percentile(late, 90)
	m.layer["driver.latency_tail_ms"] = tail.Value
	m.layer["driver.latency_tail_pct"] = tail.Pct
	m.layer["driver.goodput_frac"] = ratio(float64(good), float64(len(lr.open)))
	m.samples["driver.latency_tail_ms"] = tail.N
}

// cpuSelf returns this process's user+system CPU time so far.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakSelfMB is this process's peak resident set (Linux reports KiB).
func rssPeakSelfMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
