package main

// The traced run: spans around the benchmark's own calls into each
// layer's public functions, plus what the program's existing recorder
// and the daemon's job snapshots already say. Nothing here instruments
// the program itself.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/estimator"
	"repro/internal/hmpi"
	"repro/internal/jobspec"
	"repro/internal/mpi"
	"repro/internal/pmdl"
	"repro/internal/service"
	trc "repro/internal/trace"
)

const (
	// daemonRing is hmpid's default per-rank ring (service.Config).
	daemonRing = 4096
	// schedEvals is how many candidate groups a traced job prices with
	// Session.Timeof.
	schedEvals = 32
)

// execRing sizes a traced jobspec job's per-rank event ring: about 2^18
// events (28 MiB) for the whole world, between 2048 and 32768 per rank.
// That keeps every em3d and Jacobi job and the smaller matmul jobs free
// of drops; the largest paper9 matmul jobs emit up to 211 000 events on
// one rank, and their drops are reported as trace.dropped.
func execRing(ranks int) int {
	return min(max((1<<18)/ranks, 2048), 1<<15)
}

// span is one timed call. Times are nanoseconds since the tracer began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a job's root
	Job    int    `json:"job"`
}

// tally is a per-layer sum and the set of jobs that contributed to it.
type tally struct {
	sum  float64
	jobs map[int]bool
}

// tracer keeps spans and counts in memory; write saves the spans at the
// end of the run. Safe for concurrent use.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]*tally
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: make(map[string]*tally)} }

func (t *tracer) begin(name string, parent, job int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// record adds a span measured elsewhere.
func (t *tracer) record(name string, parent, job int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Job: job})
}

// count adds v to a per-job counter.
func (t *tracer) count(name string, job int, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counts[name]
	if c == nil {
		c = &tally{jobs: make(map[int]bool)}
		t.counts[name] = c
	}
	c.sum += v
	c.jobs[job] = true
}

// spanTotals sums closed span durations (ns) by name, with the jobs
// behind each sum.
func (t *tracer) spanTotals() map[string]*tally {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*tally)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		c := out[s.Name]
		if c == nil {
			c = &tally{jobs: make(map[int]bool)}
			out[s.Name] = c
		}
		c.sum += float64(s.End - s.Start)
		c.jobs[s.Job] = true
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// problem is a generated application input, the part of a job that
// exists before any runtime does.
type problem struct {
	em3d   *em3d.Problem
	matmul *matmul.Problem
	jacobi *jacobi.Problem
}

func generate(s jobspec.Spec) (problem, error) {
	var p problem
	var err error
	switch s.App {
	case "em3d":
		p.em3d, err = em3d.Generate(em3d.Config{P: s.P, TotalNodes: s.Nodes, Light: true})
	case "matmul":
		p.matmul, err = matmul.Generate(matmul.Config{M: s.M, R: s.R, N: s.N})
	case "jacobi":
		p.jacobi, err = jacobi.Generate(jacobi.Config{Rows: s.Grid, Cols: s.Grid, Iters: s.Iters, P: s.P})
	default:
		err = fmt.Errorf("unknown app %q", s.App)
	}
	return p, err
}

// modelArgs returns the job's performance model and the argument lists
// HMPI_Timeof is asked about, built as jobspec.Predict builds them
// (nominal speeds, one process per machine; every candidate block size
// for matmul with l=0).
func modelArgs(s jobspec.Spec, p problem) (*pmdl.Model, [][]any, error) {
	speeds := s.ClusterOrDefault().Speeds()
	switch s.App {
	case "em3d":
		return em3d.Model(), [][]any{p.em3d.ModelArgs()}, nil
	case "matmul":
		grid, _, err := matmul.ArrangeGrid(speeds, hmpi.HostRank, p.matmul.M)
		if err != nil {
			return nil, nil, err
		}
		ls := []int{s.L}
		if s.L <= 0 {
			ls = jobspec.CandidateBlockSizes(p.matmul.M, p.matmul.N)
		}
		var out [][]any
		for _, l := range ls {
			d, err := matmul.NewHetero(grid, l, p.matmul.N, p.matmul.R)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, d.ModelArgs())
		}
		return matmul.Model(), out, nil
	case "jacobi":
		rest := append([]float64(nil), speeds[hmpi.HostRank+1:]...)
		sort.Sort(sort.Reverse(sort.Float64Slice(rest)))
		strip := append([]float64{speeds[hmpi.HostRank]}, rest...)
		strip = strip[:min(len(strip), p.jacobi.P)]
		heights, err := p.jacobi.Heights(strip)
		if err != nil {
			return nil, nil, err
		}
		return jacobi.Model(), [][]any{p.jacobi.ModelArgs(heights)}, nil
	}
	return nil, nil, fmt.Errorf("unknown app %q", s.App)
}

// probe times one job's pre-run layers from outside: application input
// generation and per-rank clones, runtime construction and release,
// recorder allocation and, for HMPI-mode jobs, the selection pipeline
// (model instantiation, estimator, candidate pricing, the uncached
// search).
func (t *tracer) probe(s jobspec.Spec, parent, job int) error {
	if err := s.Normalize(); err != nil {
		return err
	}
	cl := s.ClusterOrDefault()
	ranks := cl.Size()

	sp := t.begin("apps.generate", parent, job)
	p, err := generate(s)
	t.end(sp)
	if err != nil {
		return err
	}
	if p.em3d != nil {
		// Every rank clones the whole problem (em3d.RunHMPI/RunMPI); a
		// clone copies each body's E and H fields.
		var fields int
		for _, b := range p.em3d.Bodies {
			fields += len(b.E) + len(b.H)
		}
		sp = t.begin("apps.clone", parent, job)
		for r := 0; r < ranks; r++ {
			_ = p.em3d.Clone()
		}
		t.end(sp)
		t.count("apps.clone_bytes", job, float64(8*fields*ranks))
	}

	sp = t.begin("hmpi.new", parent, job)
	rt, err := hmpi.New(hmpi.Config{Cluster: cl})
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("hmpi.finalize", parent, job)
	rt.Finalize()
	t.end(sp)

	sp = t.begin("trace.new_recorder", parent, job)
	_ = trc.NewRecorder(ranks, trc.Options{ShardCap: daemonRing})
	t.end(sp)

	if s.Mode != jobspec.ModeHMPI {
		return nil
	}
	model, argSets, err := modelArgs(s, p)
	if err != nil {
		return err
	}
	speeds := cl.Speeds()
	placement := make([]int, ranks)
	for r := range placement {
		placement[r] = r
	}
	rng := rand.New(rand.NewSource(int64(job) + 1))
	for _, args := range argSets {
		sp = t.begin("pmdl.instantiate", parent, job)
		inst, err := model.Instantiate(args...)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.begin("estimator.new", parent, job)
		est, err := estimator.New(inst, cl, speeds, placement)
		t.end(sp)
		if err != nil {
			return err
		}
		t.count("pmdl.dag_tasks", job, float64(est.DAGSize()))

		cands := candidates(rng, inst.NumProcs, inst.Parent, ranks, schedEvals)
		sess := est.Session()
		sp = t.begin("sched.eval", parent, job)
		for _, c := range cands {
			_ = sess.Timeof(c)
		}
		t.end(sp)
		t.count("sched.evals", job, float64(len(cands)))

		sp = t.begin("mapper.solve", parent, job)
		_, st, err := hmpi.PredictTimeof(hmpi.Config{Cluster: cl}, model, args...)
		t.end(sp)
		if err != nil {
			return err
		}
		t.count("mapper.evals", job, float64(st.Evaluations))
		t.count("mapper.memo_hits", job, float64(st.CacheHits))
		t.count("mapper.pruned", job, float64(st.Pruned))
		t.count("mapper.search_ns", job, float64(st.WallTime.Nanoseconds()))
	}
	return nil
}

// candidates draws n random groups of size procs out of ranks world
// ranks, with the parent coordinate pinned to the host.
func candidates(rng *rand.Rand, procs, parent, ranks, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		others := rng.Perm(ranks - 1)
		c := make([]int, procs)
		k := 0
		for j := range c {
			if j == parent {
				c[j] = hmpi.HostRank
				continue
			}
			c[j] = others[k] + 1
			k++
		}
		out[i] = c
	}
	return out
}

// fromRecorder reads a finished job's structured trace and message
// counters: the host's Recon, group creation and algorithm region as
// spans under parent; message and byte counts from the world's exact
// per-rank statistics; collective counts and host time in the
// message-passing layer from the events. Point-to-point events carry one
// wall stamp, taken when the operation completes, so a receive's or
// wait's host time is the gap since the rank's previous event (blocking
// plus copy-out), and a send's the gap before it (payload preparation
// plus the send call). base is the host time the recorder was created at.
func (t *tracer) fromRecorder(d *trc.Data, stats []mpi.Stats, base time.Time, parent, job int) {
	at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
	var msgs, bytes, colls, waitNS, sendNS, events float64
	for _, st := range stats {
		msgs += float64(st.MsgsSent)
		bytes += float64(st.BytesSent)
	}
	for rank, evs := range d.PerRank {
		var prev int64 = -1
		for _, e := range evs {
			events++
			gap := e.WallEnd - prev
			if prev < 0 || gap < 0 {
				gap = 0
			}
			prev = e.WallEnd
			switch e.Kind {
			case trc.KindSend, trc.KindIsend:
				sendNS += float64(gap)
			case trc.KindRecv, trc.KindWait:
				waitNS += float64(gap)
			case trc.KindColl:
				colls++
			}
			if rank != hmpi.HostRank {
				continue
			}
			switch e.Kind {
			case trc.KindRecon:
				t.record("hmpi.recon", parent, job, at(e.WallStart), at(e.WallEnd))
			case trc.KindGroupCreate:
				t.record("hmpi.group_create", parent, job, at(e.WallStart), at(e.WallEnd))
			case trc.KindRegion:
				t.record("apps.region", parent, job, at(e.WallStart), at(e.WallEnd))
			}
		}
	}
	t.count("mpi.msgs", job, msgs)
	t.count("mpi.bytes", job, bytes)
	t.count("mpi.colls", job, colls)
	t.count("mpi.wait_ns", job, waitNS)
	t.count("mpi.send_ns", job, sendNS)
	t.count("trace.events", job, events)
	t.count("trace.dropped", job, float64(d.Meta.Dropped))
}

// fromService reads what a daemon job's snapshot reports about its run:
// the trace summary and the metrics registry filled from the trace.
func (t *tracer) fromService(info service.JobInfo, job int) {
	if info.Trace != nil {
		t.count("trace.events", job, float64(info.Trace.Events))
		t.count("trace.dropped", job, float64(info.Trace.Dropped))
	}
	if info.Metrics == nil {
		return
	}
	var msgs, colls, bytes float64
	for _, c := range info.Metrics.Counters {
		switch c.Name {
		case "events_send_total", "events_isend_total":
			msgs += float64(c.Value)
		case "events_coll_total":
			colls += float64(c.Value)
		}
	}
	for _, h := range info.Metrics.Histograms {
		if h.Name == "send_bytes" {
			bytes += h.Sum
		}
	}
	t.count("mpi.msgs", job, msgs)
	t.count("mpi.bytes", job, bytes)
	t.count("mpi.colls", job, colls)
}

// layerMetrics turns spans and counts into the per-layer metrics: each a
// mean per job that did work in the layer (0 where no job did), unless it
// is a ratio.
func (t *tracer) layerMetrics() []metric {
	spans := t.spanTotals()
	t.mu.Lock()
	counts := t.counts
	t.mu.Unlock()
	perJob := func(m map[string]*tally, name string, scale float64) (float64, int) {
		c := m[name]
		if c == nil || len(c.jobs) == 0 {
			return 0, 0
		}
		return c.sum / float64(len(c.jobs)) * scale, len(c.jobs)
	}
	ratio := func(num, den string, nm, dm map[string]*tally) (float64, int) {
		n, d := nm[num], dm[den]
		if n == nil || d == nil || d.sum == 0 {
			return 0, 0
		}
		return n.sum / d.sum, len(d.jobs)
	}
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, value: v, unit: unit, samples: n})
	}
	spanMetric := func(name, span, unit string, scale float64) {
		v, n := perJob(spans, span, scale)
		add(name, unit, v, n)
	}
	countMetric := func(name, count, unit string, scale float64) {
		v, n := perJob(counts, count, scale)
		add(name, unit, v, n)
	}
	const us, ms = 1e-3, 1e-6
	spanMetric("pmdl.instantiate_us", "pmdl.instantiate", "us", us)
	countMetric("pmdl.dag_tasks", "pmdl.dag_tasks", "count", 1)
	spanMetric("estimator.new_us", "estimator.new", "us", us)
	v, n := ratio("sched.eval", "sched.evals", spans, counts)
	add("sched.eval_ns", "ns", v, n)
	spanMetric("mapper.solve_ms", "mapper.solve", "ms", ms)
	countMetric("mapper.evals", "mapper.evals", "count", 1)
	countMetric("mapper.memo_hits", "mapper.memo_hits", "count", 1)
	countMetric("mapper.pruned", "mapper.pruned", "count", 1)
	v, n = ratio("mapper.search_ns", "mapper.evals", counts, counts)
	add("mapper.ns_per_eval", "ns", v, n)
	spanMetric("hmpi.new_us", "hmpi.new", "us", us)
	spanMetric("hmpi.recon_ms", "hmpi.recon", "ms", ms)
	spanMetric("hmpi.group_create_ms", "hmpi.group_create", "ms", ms)
	spanMetric("hmpi.finalize_us", "hmpi.finalize", "us", us)
	spanMetric("apps.generate_ms", "apps.generate", "ms", ms)
	spanMetric("apps.clone_ms", "apps.clone", "ms", ms)
	countMetric("apps.clone_mb", "apps.clone_bytes", "MiB", 1.0/(1<<20))
	spanMetric("apps.region_ms", "apps.region", "ms", ms)
	countMetric("mpi.msgs", "mpi.msgs", "count", 1)
	countMetric("mpi.bytes", "mpi.bytes", "B", 1)
	countMetric("mpi.colls", "mpi.colls", "count", 1)
	countMetric("mpi.wait_ms", "mpi.wait_ns", "ms", ms)
	countMetric("mpi.send_us", "mpi.send_ns", "us", us)
	spanMetric("trace.new_recorder_us", "trace.new_recorder", "us", us)
	countMetric("trace.events", "trace.events", "count", 1)
	countMetric("trace.dropped", "trace.dropped", "count", 1)
	spanMetric("service.submit_ms", "service.submit", "ms", ms)
	spanMetric("service.queue_ms", "service.queue", "ms", ms)
	spanMetric("service.run_ms", "service.run", "ms", ms)
	spanMetric("service.result_ms", "service.result", "ms", ms)
	countMetric("service.repeat_share", "service.repeat", "ratio", 1)
	for i := range out {
		if math.IsNaN(out[i].value) || math.IsInf(out[i].value, 0) {
			out[i].value = 0
		}
	}
	return out
}
