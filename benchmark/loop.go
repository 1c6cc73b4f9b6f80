package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobspec"
)

// jobTimeout is the watchdog limit on one job. The longest job of any
// workload takes well under a second of host time.
const jobTimeout = 20 * time.Second

// errTimedOut marks a job the watchdog gave up on.
var errTimedOut = errors.New("job timed out")

// errRejected marks a job the daemon's admission control refused.
var errRejected = errors.New("job rejected")

// watchdog runs f and waits at most limit for it. A job that never
// returns cannot be interrupted (a simulated run is one computation with
// no cancellation point), so on timeout its goroutine is abandoned: it
// stays blocked until the process exits, and the job counts as timed
// out instead of stalling the run. A panic in f is reported as an error.
func watchdog[T any](limit time.Duration, f func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1) // buffered: an abandoned job's late send must not block
	go func() {
		var r result
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("job panicked: %v", p)
			}
			ch <- r
		}()
		r.v, r.err = f()
	}()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-t.C:
		var zero T
		return zero, errTimedOut
	}
}

// execute runs one job through jobspec.Execute, the hmpirun path, under
// the watchdog.
func execute(s jobspec.Spec, opts jobspec.ExecOptions, limit time.Duration) (*jobspec.Result, error) {
	return watchdog(limit, func() (*jobspec.Result, error) { return jobspec.Execute(s, opts) })
}

// loopStats is what a closed loop measured.
type loopStats struct {
	wall                       time.Duration
	cpu                        time.Duration
	lat                        []sample // per completed job
	attempted, done            int
	failed, rejected, timedOut int
	firstErr                   error
}

// sample is one completed job's host wall time, by job number.
type sample struct {
	job int
	ms  float64
}

func (l *loopStats) errors() int { return l.failed + l.rejected + l.timedOut }

// latencies returns the completed jobs' host times in ms. With a cycle
// length, only jobs of whole cycles count (job numbers below the last
// multiple of cycle issued), so each spec of the list weighs the same.
func (l *loopStats) latencies(cycle int) []float64 {
	limit := l.attempted
	if cycle > 0 {
		limit = l.attempted / cycle * cycle
	}
	var out []float64
	for _, s := range l.lat {
		if s.job < limit {
			out = append(out, s.ms)
		}
	}
	return out
}

// closedLoop runs job from `clients` goroutines until d has passed: each
// client issues its next job only when the previous one has returned.
// Jobs are numbered first, first+1, ... across clients in issue order.
func closedLoop(clients int, d time.Duration, first int, job func(i int) error) loopStats {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		stats loopStats
		wg    sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := first + int(next.Add(1)-1)
				t0 := time.Now()
				err := job(i)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				mu.Lock()
				stats.attempted++
				switch {
				case err == nil:
					stats.done++
					stats.lat = append(stats.lat, sample{i, ms})
				case errors.Is(err, errTimedOut):
					stats.timedOut++
				case errors.Is(err, errRejected):
					stats.rejected++
				default:
					stats.failed++
				}
				if err != nil && stats.firstErr == nil {
					stats.firstErr = fmt.Errorf("job %d: %w", i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats.wall = time.Since(start)
	stats.cpu = cpuTime() - cpu0
	return stats
}
