// Command benchmark is the repository's end-to-end benchmark. It runs one
// named, seeded workload through the entry points users call —
// jobspec.Execute (the hmpirun path) or hmpid's socket protocol — checks
// the outputs, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host cost and
// simulated speed, measured with tracing off); with --trace 1 they are the
// per-layer ones from a separate traced run. Build and run from the
// repository root with
//
//	bash benchmark/run.sh --workload paper9 --seed 1 --seconds 20 --trace 0
//
// The command exits 1 when a correctness check fails and 2 when the run
// itself cannot be completed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// stateDir holds the daemon's socket and the traced run's spans. It is
// relative to the working directory, the checkout the benchmark runs in.
const stateDir = ".bench_build"

// setupRuns is how many times an untraced run sets up, reporting the
// median as setup_s.
const setupRuns = 41

// minJobs is the fewest jobs a timed phase must complete so that at
// least minBeyondP90 samples lie beyond p90.
const minJobs = 100

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper9, scale-select or hmpid-mix")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	)
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(*workload, *seed, d)
	} else {
		rep, err = runEndToEnd(*workload, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep.print(*workload, *seed)
	if !rep.correct {
		os.Exit(1)
	}
}

// report is one run's outcome.
type report struct {
	correct   bool
	checkErr  error
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

// check runs every correctness check of the run; the first failure makes
// the report incorrect.
func (rep *report) check(r runner, seed int64) {
	rep.correct = true
	for _, f := range []func() error{func() error { return checkRealMath(seed) }, r.verify} {
		if err := f(); err != nil {
			rep.correct, rep.checkErr = false, err
			return
		}
	}
}

func (rep *report) print(workload string, seed int64) {
	fmt.Printf("workload %s, seed %d: %d jobs attempted, %d failed\n", workload, seed, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, m := range rep.metrics {
		fmt.Println(m)
	}
	if rep.checkErr != nil {
		fmt.Println("CORRECTNESS CHECK FAILED:", rep.checkErr)
	} else {
		fmt.Println("correctness checks passed")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, make(map[string]value)}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// loopNote describes a closed loop's accounting.
func loopNote(phase string, ls loopStats) string {
	s := fmt.Sprintf("%s: %d attempted, %d done, %d failed, %d rejected, %d timed out in %.2f s",
		phase, ls.attempted, ls.done, ls.failed, ls.rejected, ls.timedOut, ls.wall.Seconds())
	if ls.firstErr != nil {
		s += "; first error: " + ls.firstErr.Error()
	}
	return s
}

// runEndToEnd sets up setupRuns times, measures the closed loop with
// tracing off, checks correctness and computes the exact simulated
// figures.
func runEndToEnd(workload string, seed int64, d time.Duration) (*report, error) {
	var setups []float64
	var r runner
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		var err error
		r, err = setup(workload, seed, stateDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRuns-1 {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
	}
	ls := closedLoop(r.clients(), d, 0, r.job)
	rss := peakRSSMB()
	if err := r.close(); err != nil {
		return nil, err
	}
	rep := &report{attempted: ls.attempted, failed: ls.errors()}
	rep.notes = append(rep.notes, loopNote("measured phase", ls))
	rep.check(r, seed)
	lat := ls.latencies(cycleLen[workload])
	if len(lat) < minJobs {
		return nil, fmt.Errorf("only %d timed jobs in %v; percentiles need at least %d", len(lat), d, minJobs)
	}
	p50, _ := percentile(lat, 50)
	p90, beyond := percentile(lat, 90)
	if beyond < minBeyondP90 {
		return nil, fmt.Errorf("only %d samples beyond p90; need %d", beyond, minBeyondP90)
	}
	sim, err := r.sim()
	if err != nil {
		return nil, err
	}
	n := ls.done
	errRate := float64(ls.errors()) / float64(ls.attempted)
	rep.metrics = []metric{
		{name: "setup_s", value: median(setups), unit: "s", samples: len(setups), note: "median of set-ups"},
		{name: "jobs_per_s", value: float64(n) / ls.wall.Seconds(), unit: "1/s", samples: n, note: fmt.Sprintf("%d clients, closed loop", r.clients())},
		{name: "job_ms_p50", value: p50, unit: "ms", samples: len(lat)},
		{name: "job_ms_p90", value: p90, unit: "ms", samples: len(lat), note: fmt.Sprintf("%d beyond p90", beyond)},
		{name: "cpu_ms_per_job", value: float64(ls.cpu.Nanoseconds()) / 1e6 / float64(n), unit: "ms", samples: n},
		{name: "peak_rss_mb", value: rss, unit: "MiB", samples: 1},
		{name: "success_pct", value: 100 * (1 - errRate), unit: "%", samples: ls.attempted,
			note: fmt.Sprintf("error_rate %.4g = (%d failed + %d rejected + %d timed out) / %d attempted",
				errRate, ls.failed, ls.rejected, ls.timedOut, ls.attempted)},
		{name: "sim_makespan_s", value: sim.makespanS, unit: "s", samples: sim.hmpiJobs, note: "exact, simulated"},
		{name: "hmpi_speedup_x", value: sim.speedupX, unit: "x", samples: sim.hmpiJobs, note: "exact, simulated"},
		{name: "timeof_err_pct", value: sim.timeofPct, unit: "%", samples: sim.hmpiJobs, note: "exact, simulated"},
	}
	return rep, nil
}

// runTraced sets up once, runs the closed loop untraced for half the
// time (the base for the tracing overhead and the Go runtime figures),
// then traced for the other half, and reports the per-layer metrics.
func runTraced(workload string, seed int64, d time.Duration) (*report, error) {
	r, err := setup(workload, seed, stateDir)
	if err != nil {
		return nil, err
	}
	g0 := readGC()
	plain := closedLoop(r.clients(), d/2, 0, r.job)
	g1 := readGC()
	mix, _ := r.(*mixRunner)
	var c0 cacheCounters
	if mix != nil {
		if c0, err = mix.cacheCounters(); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	traced := closedLoop(r.clients(), d/2, plain.attempted, func(i int) error { return r.traced(i, tr) })
	var c1 cacheCounters
	if mix != nil {
		if c1, err = mix.cacheCounters(); err != nil {
			return nil, err
		}
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	rep := &report{attempted: plain.attempted + traced.attempted, failed: plain.errors() + traced.errors()}
	rep.notes = append(rep.notes, loopNote("untraced phase", plain), loopNote("traced phase", traced))
	rep.check(r, seed)
	if plain.done == 0 || traced.done == 0 {
		return nil, fmt.Errorf("a phase completed no job (untraced %d, traced %d)", plain.done, traced.done)
	}
	path := filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "spans written to "+path)

	rep.metrics = tr.layerMetrics()
	perJob := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(n) }
	nP := plain.done
	rep.metrics = append(rep.metrics,
		metric{name: "service.solve_hit_ratio", value: c1.solveHitRatio(c0), unit: "ratio", samples: traced.done},
		metric{name: "service.value_hit_ratio", value: c1.valueHitRatio(c0), unit: "ratio", samples: traced.done},
		metric{name: "service.cache_evictions", value: float64(c1.evictions-c0.evictions) / float64(traced.done), unit: "count", samples: traced.done},
		metric{name: "gc.cpu_frac", value: safeDiv(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU), unit: "ratio", samples: nP},
		metric{name: "gc.alloc_mb_per_job", value: float64(g1.allocBytes-g0.allocBytes) / (1 << 20) / float64(nP), unit: "MiB", samples: nP},
		metric{name: "gc.allocs_per_job", value: float64(g1.allocObjects-g0.allocObjects) / float64(nP), unit: "count", samples: nP},
		metric{name: "gc.cycles_per_job", value: float64(g1.cycles-g0.cycles) / float64(nP), unit: "count", samples: nP},
		metric{name: "trace.overhead_cpu_ms", value: perJob(traced.cpu, traced.done) - perJob(plain.cpu, nP), unit: "ms", samples: traced.done,
			note: fmt.Sprintf("traced %.4g - untraced %.4g cpu_ms_per_job", perJob(traced.cpu, traced.done), perJob(plain.cpu, nP))},
	)
	return rep, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
