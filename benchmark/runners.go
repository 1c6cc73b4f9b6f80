package main

// The two ways a workload reaches the program: jobspec.Execute (the
// hmpirun path) for paper9 and scale-select, and an in-process hmpid
// driven over its unix-socket protocol for hmpid-mix.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/hmpi"
	"repro/internal/jobspec"
	"repro/internal/service"
	trc "repro/internal/trace"
)

// runner drives one workload's jobs.
type runner interface {
	// clients is the closed loop's concurrency.
	clients() int
	// job runs submission i untraced.
	job(i int) error
	// traced runs submission i with per-layer spans.
	traced(i int, t *tracer) error
	// verify checks every output of the run against its reference.
	verify() error
	// sim computes the exact simulated figures of the seeded spec list.
	sim() (simFigures, error)
	// close releases the runner (stops the daemon).
	close() error
}

// warmupSpec is a tiny job run once at the end of set-up, outside every
// workload's spec space (no generator draws a 50-point grid).
func warmupSpec() jobspec.Spec {
	return jobspec.Spec{App: "jacobi", Mode: jobspec.ModeHMPI, Grid: 50, P: 4, Iters: 1, Tenant: "warmup"}
}

// parseModels parses the three applications' performance models.
func parseModels() {
	_, _, _ = em3d.Model(), matmul.Model(), jacobi.Model()
}

// setup builds a workload's inputs and service and runs the warm-up job:
// everything between benchmark start and the first measured job.
func setup(workload string, seed int64, stateDir string) (runner, error) {
	parseModels()
	switch workload {
	case wPaper9, wScaleSelect:
		specs := paper9Specs(seed)
		if workload == wScaleSelect {
			specs = scaleSelectSpecs(seed)
		}
		r := &execRunner{specs: specs, refs: newRefTable()}
		for i := range specs {
			if err := specs[i].Normalize(); err != nil { // validates the clusters
				return nil, err
			}
			r.keys = append(r.keys, specKey(specs[i]))
		}
		if _, err := execute(warmupSpec(), jobspec.ExecOptions{}, jobTimeout); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		return r, nil
	case wHmpidMix:
		r := &mixRunner{src: newMixSource(seed), seed: seed, refs: newRefTable()}
		sock := fmt.Sprintf("%s/hmpid-%d.sock", stateDir, os.Getpid())
		if err := r.start(sock); err != nil {
			return nil, err
		}
		if _, err := r.submitWait(warmupSpec()); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up job: %w", err), r.close())
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// execRunner cycles one client through a fixed seeded spec list, each job
// a standalone jobspec.Execute with no shared selection cache.
type execRunner struct {
	specs []jobspec.Spec
	keys  []string
	refs  *refTable
}

func (r *execRunner) clients() int { return 1 }

func (r *execRunner) job(i int) error {
	k := i % len(r.specs)
	res, err := execute(r.specs[k], jobspec.ExecOptions{}, jobTimeout)
	if err != nil {
		return err
	}
	r.refs.observe(r.specs[k], r.keys[k], res)
	return nil
}

func (r *execRunner) traced(i int, t *tracer) error {
	k := i % len(r.specs)
	s := r.specs[k]
	root := t.begin("job", -1, i)
	defer t.end(root)
	if err := t.probe(s, root, i); err != nil {
		return err
	}
	var (
		run  *hmpi.Runtime
		rec  *trc.Recorder
		base time.Time
	)
	sp := t.begin("jobspec.execute", root, i)
	res, err := execute(s, jobspec.ExecOptions{OnRuntime: func(rt *hmpi.Runtime) {
		base = time.Now()
		run = rt
		rec = rt.EnableRecorder(s.App, trc.Options{ShardCap: execRing(rt.World().Size())})
	}}, jobTimeout)
	t.end(sp)
	if err != nil {
		return err
	}
	r.refs.observe(r.specs[k], r.keys[k], res)
	t.fromRecorder(rec.Data(), run.World().Stats(), base, sp, i)
	return nil
}

func (r *execRunner) verify() error { return r.refs.failure() }

func (r *execRunner) sim() (simFigures, error) {
	return simulate(r.specs, r.refs.results())
}

func (r *execRunner) close() error { return nil }

// mixWorkers and mixClients size hmpid-mix: no more client goroutines
// than the two cores the benchmark is sized for.
const (
	mixWorkers = 2
	mixClients = 2
	// mixRefSpecs is the length of hmpid-mix's spec list for the exact
	// simulated figures.
	mixRefSpecs = 240
)

// mixRunner drives an in-process hmpid over its real socket protocol.
type mixRunner struct {
	src    *mixSource
	seed   int64
	refs   *refTable // daemon results per spec
	srv    *service.Server
	ln     net.Listener
	served chan error
	client *service.Client
	sock   string
}

// start brings the daemon up on a unix socket and checks it answers.
func (r *mixRunner) start(sock string) error {
	_ = os.Remove(sock) // a stale socket of an earlier, killed run
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	r.sock, r.ln = sock, ln
	r.srv = service.New(service.Config{Workers: mixWorkers})
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	r.client = service.NewClient(sock)
	if _, err := r.client.Stats(); err != nil {
		return errors.Join(fmt.Errorf("daemon does not answer: %w", err), r.close())
	}
	return nil
}

// close shuts the daemon down through the protocol and waits for it to
// drain. A job abandoned by the watchdog never drains, so the wait is
// bounded.
func (r *mixRunner) close() error {
	if r.srv == nil {
		return nil
	}
	srv := r.srv
	r.srv = nil
	defer os.Remove(r.sock)
	if err := r.client.Shutdown(); err != nil {
		r.ln.Close() // Serve also stops when its listener closes
	}
	select {
	case <-r.served:
		srv.Close()
		return nil
	case <-time.After(jobTimeout):
		return fmt.Errorf("daemon did not drain within %v", jobTimeout)
	}
}

func (r *mixRunner) clients() int { return mixClients }

// outcome maps a terminal job snapshot to the loop's accounting.
func outcome(info service.JobInfo, err error) error {
	switch {
	case info.State == service.StateRejected:
		return fmt.Errorf("%w: %s", errRejected, info.Err)
	case err != nil:
		return err
	case info.State != service.StateDone:
		return fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Err)
	case info.Result == nil:
		return fmt.Errorf("job %s has no result", info.ID)
	}
	return nil
}

// submitWait submits a spec and waits for its terminal snapshot.
func (r *mixRunner) submitWait(s jobspec.Spec) (service.JobInfo, error) {
	info, err := watchdog(jobTimeout, func() (service.JobInfo, error) { return r.client.Submit(s, true) })
	return info, outcome(info, err)
}

func (r *mixRunner) job(i int) error {
	s, _ := r.src.at(i)
	info, err := r.submitWait(s)
	if err != nil {
		return err
	}
	r.refs.observe(s, specKey(s), info.Result)
	return nil
}

func (r *mixRunner) traced(i int, t *tracer) error {
	s, repeat := r.src.at(i)
	root := t.begin("job", -1, i)
	defer t.end(root)
	t.count("service.repeat", i, boolValue(repeat))
	if !repeat {
		if err := t.probe(s, root, i); err != nil {
			return err
		}
	}
	sp := t.begin("service.submit", root, i)
	info, err := watchdog(jobTimeout, func() (service.JobInfo, error) { return r.client.Submit(s, false) })
	t.end(sp)
	if info.State == service.StateRejected {
		return outcome(info, err)
	}
	if err != nil {
		return err
	}
	queued := time.Now()
	var running, ended time.Time
	_, err = watchdog(jobTimeout, func() (service.JobInfo, error) {
		return r.client.Watch(info.ID, 0, func(e service.JobEvent) {
			switch {
			case e.State == service.StateRunning && running.IsZero():
				running = time.Now()
			case e.State.Terminal():
				ended = time.Now()
			}
		})
	})
	if err != nil {
		return err
	}
	if running.IsZero() || running.Before(queued) {
		running = queued // the job was already running when the watch began
	}
	t.record("service.queue", root, i, queued, running)
	t.record("service.run", root, i, running, ended)
	sp = t.begin("service.result", root, i)
	full, err := watchdog(jobTimeout, func() (service.JobInfo, error) { return r.client.Result(info.ID) })
	t.end(sp)
	if err := outcome(full, err); err != nil {
		return err
	}
	r.refs.observe(s, specKey(s), full.Result)
	t.fromService(full, i)
	return nil
}

// verify checks that every completion of a spec agreed (refs) and that
// each distinct spec's daemon makespan equals a serial, uncached
// jobspec.Execute of the same spec. The references run after the
// measured phase, on mixWorkers goroutines; each is still a standalone
// Execute with no shared cache.
func (r *mixRunner) verify() error {
	if err := r.refs.failure(); err != nil {
		return err
	}
	results := r.refs.results()
	keys := make(chan string)
	errs := make([]error, mixWorkers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keys {
				if errs[w] == nil {
					errs[w] = r.verifySpec(key, results[key])
				}
			}
		}()
	}
	for key := range results {
		keys <- key
	}
	close(keys)
	wg.Wait()
	return errors.Join(errs...)
}

// verifySpec compares one spec's daemon result with a serial execute.
func (r *mixRunner) verifySpec(key string, got *jobspec.Result) error {
	want, err := execute(r.refs.spec(key), jobspec.ExecOptions{}, jobTimeout)
	if err != nil {
		return fmt.Errorf("serial reference of %s: %w", key, err)
	}
	if !sameResult(got, want) {
		return fmt.Errorf("spec %s: daemon makespan %v, serial execute %v", key, float64(got.Makespan), float64(want.Makespan))
	}
	return nil
}

func (r *mixRunner) sim() (simFigures, error) {
	return simulate(mixReferenceSpecs(r.seed, mixRefSpecs), r.refs.results())
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// cacheCounters is a reading of the daemon's selection-cache counters.
type cacheCounters struct {
	hits, misses, solveHits, solveMisses, evictions int64
}

// cacheCounters reads the counters over the protocol's stats op.
func (r *mixRunner) cacheCounters() (cacheCounters, error) {
	st, err := r.client.Stats()
	if err != nil {
		return cacheCounters{}, err
	}
	c := st.Cache
	return cacheCounters{c.Hits, c.Misses, c.SolveHits, c.SolveMisses, c.Evictions}, nil
}

// solveHitRatio is the whole-solve memo's hit ratio since base.
func (c cacheCounters) solveHitRatio(base cacheCounters) float64 {
	h := c.solveHits - base.solveHits
	return safeDiv(float64(h), float64(h+c.solveMisses-base.solveMisses))
}

// valueHitRatio is the value layer's hit ratio since base.
func (c cacheCounters) valueHitRatio(base cacheCounters) float64 {
	h := c.hits - base.hits
	return safeDiv(float64(h), float64(h+c.misses-base.misses))
}
