package experiments

// The job-service benchmark behind `hmpibench -servicebench`: a
// multi-tenant mix of jobs flows through an in-process hmpid server, and
// the report records the service's concurrent throughput (jobs/sec over
// a >= 50-job mix), the daemon-lifetime selection cache's hit rate on
// repeated specs, the warm-vs-cold latency speedup the cache buys a
// returning tenant, and whether every daemon-run makespan stayed
// bit-identical to the same spec run serially and uncached through the
// hmpirun path. CI publishes the JSON as the service performance record;
// the acceptance bars are a >50% hit rate on repeats, a >= 1.5x warm
// speedup, and exact bit-identity.
//
// Methodology: the warm-vs-cold phase runs the distinct specs one at a
// time (sequential submit-and-wait), so the ratio measures per-job cost
// and not scheduler noise; like the tracing benchmark, both sides are
// minima over repeated rounds, with the cache reset before every cold
// round. The throughput phase then pushes the full repeated mix through
// the worker pool concurrently.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/jobspec"
	"repro/internal/service"
	"repro/internal/vclock"
)

// ServiceBench is the JSON document `hmpibench -servicebench` emits.
type ServiceBench struct {
	// Workload describes the job mix.
	Workload string `json:"workload"`
	// Jobs is the total number of jobs pushed through the daemon across
	// all phases; DistinctSpecs of them are unique, the rest repeats.
	Jobs          int `json:"jobs"`
	DistinctSpecs int `json:"distinct_specs"`
	Workers       int `json:"workers"`
	// ThroughputJobs ran concurrently in the throughput phase; WallNS is
	// that phase's wall time and JobsPerSec its rate.
	ThroughputJobs int     `json:"throughput_jobs"`
	WallNS         int64   `json:"wall_ns"`
	JobsPerSec     float64 `json:"jobs_per_sec"`
	// ColdWallNS and WarmWallNS are the minima, over SpeedupRounds
	// rounds, of running every distinct spec sequentially through an
	// empty and a fully warm cache; WarmSpeedup is their ratio — what
	// the persistent cache buys a returning tenant.
	SpeedupRounds int     `json:"speedup_rounds"`
	ColdWallNS    int64   `json:"cold_wall_ns"`
	WarmWallNS    int64   `json:"warm_wall_ns"`
	WarmSpeedup   float64 `json:"warm_speedup"`
	// ColdEvals and WarmEvals hold, per round, the objective evaluations
	// the round actually ran (value-layer cache misses): the exact,
	// noise-free count behind WarmSpeedup's wall-clock ratio.
	ColdEvals []int64 `json:"cold_evals"`
	WarmEvals []int64 `json:"warm_evals"`
	// CacheHitRate is the value layer's hits/(hits+misses) over the whole
	// mix; CacheHits, CacheMisses and CacheEntries break it down.
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheEntries int64   `json:"cache_entries"`
	// SolveHitRate is the whole-solve memo's rate — the fraction of
	// selection searches served from cache instead of run. This is the
	// "hit rate on repeated specs": every search a repeat job would run
	// again counts a solve hit when the memo covers it.
	SolveHitRate float64 `json:"solve_hit_rate"`
	SolveHits    int64   `json:"solve_hits"`
	SolveMisses  int64   `json:"solve_misses"`
	// BitIdentical reports whether every job's makespan matched the
	// serial, uncached reference execution of the same spec exactly.
	BitIdentical bool `json:"bit_identical"`
}

// serviceBenchSpecs returns the distinct job specs of the mix: all three
// applications across three tenants, weighted toward six-process jobs on
// the paper's nine machines — 9^5 candidate placements keeps StrategyAuto
// in the exhaustive regime, where the group-selection search dominates a
// small workload's cost. That is exactly the regime the persistent cache
// targets: a cold job pays the search once, and every repeat skips it via
// the whole-solve memo. Two matmul jobs stay in the mix as
// simulation-bound ballast the cache cannot help.
func serviceBenchSpecs() []jobspec.Spec {
	var specs []jobspec.Spec
	tenants := []string{"amber", "beryl", "coral"}
	for i := 0; i < 5; i++ {
		em := jobspec.Default()
		em.Nodes, em.P, em.Iters = 6_000+2_000*i, 6, 2
		em.Tenant = tenants[i%len(tenants)]
		specs = append(specs, em)
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, jobspec.Spec{
			App: "jacobi", Grid: 100 + 20*i, P: 6, Iters: 2, Tenant: tenants[(i+1)%len(tenants)],
		})
	}
	specs = append(specs, jobspec.Spec{
		App: "matmul", N: 12, R: 6, M: 3, L: 3, Tenant: tenants[2],
	})
	return specs // 12 distinct specs
}

// submitWait pushes one job through the server and returns its makespan.
func submitWait(srv *service.Server, sp jobspec.Spec) (vclock.Time, error) {
	info, err := srv.Submit(sp)
	if err == nil {
		info, err = srv.Result(info.ID)
	}
	if err != nil {
		return 0, err
	}
	if info.State != service.StateDone {
		return 0, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Err)
	}
	return info.Result.Makespan, nil
}

// sequentialBatch runs every spec through the server one at a time,
// checking each makespan against the reference.
func sequentialBatch(srv *service.Server, specs []jobspec.Spec, refs []vclock.Time, identical *bool) (time.Duration, error) {
	t0 := time.Now()
	for i, sp := range specs {
		m, err := submitWait(srv, sp)
		if err != nil {
			return 0, err
		}
		if m != refs[i] {
			*identical = false
		}
	}
	return time.Since(t0), nil
}

// concurrentBatch pushes every spec through the worker pool at once.
func concurrentBatch(srv *service.Server, specs []jobspec.Spec, refs []vclock.Time, identical *bool) (time.Duration, error) {
	errs := make([]error, len(specs))
	same := make([]bool, len(specs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp jobspec.Spec) {
			defer wg.Done()
			m, err := submitWait(srv, sp)
			errs[i], same[i] = err, m == refs[i%len(refs)]
		}(i, sp)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		if !same[i] {
			*identical = false
		}
	}
	return wall, nil
}

// ServiceBenchReport runs the service benchmark.
func ServiceBenchReport() (*ServiceBench, error) {
	specs := serviceBenchSpecs()
	const speedupRounds = 3
	const throughputRepeats = 5 // 5 * 12 = 60 concurrent jobs
	bench := &ServiceBench{
		Workload:      "em3d/jacobi/matmul mix, 3 tenants (Paper9)",
		DistinctSpecs: len(specs),
		Workers:       8,
		SpeedupRounds: speedupRounds,
		BitIdentical:  true,
	}

	// Serial, uncached reference: what hmpirun prints for each spec.
	refs := make([]vclock.Time, len(specs))
	for i, sp := range specs {
		res, err := jobspec.Execute(sp, jobspec.ExecOptions{})
		if err != nil {
			return nil, err
		}
		refs[i] = res.Makespan
	}

	srv := service.New(service.Config{Workers: bench.Workers})
	defer srv.Close()

	// Warm-vs-cold phase: sequential, minima over rounds, cache reset
	// before every cold side.
	for round := 0; round < speedupRounds; round++ {
		srv.Cache().Reset() // zeroes the counters too
		cold, err := sequentialBatch(srv, specs, refs, &bench.BitIdentical)
		if err != nil {
			return nil, err
		}
		coldEvals := srv.Cache().Stats().Misses
		warm, err := sequentialBatch(srv, specs, refs, &bench.BitIdentical)
		if err != nil {
			return nil, err
		}
		bench.ColdEvals = append(bench.ColdEvals, coldEvals)
		bench.WarmEvals = append(bench.WarmEvals, srv.Cache().Stats().Misses-coldEvals)
		bench.Jobs += 2 * len(specs)
		if ns := cold.Nanoseconds(); bench.ColdWallNS == 0 || ns < bench.ColdWallNS {
			bench.ColdWallNS = ns
		}
		if ns := warm.Nanoseconds(); bench.WarmWallNS == 0 || ns < bench.WarmWallNS {
			bench.WarmWallNS = ns
		}
	}
	if bench.WarmWallNS > 0 {
		bench.WarmSpeedup = float64(bench.ColdWallNS) / float64(bench.WarmWallNS)
	}

	// Throughput phase: the >= 50-job concurrent mix on the warm cache.
	mix := make([]jobspec.Spec, 0, throughputRepeats*len(specs))
	for r := 0; r < throughputRepeats; r++ {
		mix = append(mix, specs...)
	}
	wall, err := concurrentBatch(srv, mix, refs, &bench.BitIdentical)
	if err != nil {
		return nil, err
	}
	bench.ThroughputJobs = len(mix)
	bench.Jobs += len(mix)
	bench.WallNS = wall.Nanoseconds()
	if wall > 0 {
		bench.JobsPerSec = float64(len(mix)) / wall.Seconds()
	}

	st := srv.Stats()
	bench.CacheHitRate = st.Cache.HitRate()
	bench.CacheHits, bench.CacheMisses = st.Cache.Hits, st.Cache.Misses
	bench.CacheEntries = st.Cache.Entries
	bench.SolveHitRate = st.Cache.SolveHitRate()
	bench.SolveHits, bench.SolveMisses = st.Cache.SolveHits, st.Cache.SolveMisses
	if !bench.BitIdentical {
		return bench, fmt.Errorf("experiments: daemon makespans diverged from the serial reference")
	}
	return bench, nil
}
