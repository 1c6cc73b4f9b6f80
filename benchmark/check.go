package main

// Correctness checks. A benchmark run is only reported correct when the
// applications compute the right numbers and the simulation is
// deterministic; any mismatch fails the command.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/jobspec"
)

// sameBits reports whether two float vectors are bit-for-bit equal.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d is %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}

// checkRealMath runs small real-arithmetic EM3D, matmul and Jacobi jobs in
// HMPI and MPI mode on Paper9 and compares every result bit for bit with
// the serial reference. The inputs derive from seed.
func checkRealMath(seed int64) error {
	useed := uint64(seed)*0x9E3779B97F4A7C15 | 1
	modes := []string{jobspec.ModeHMPI, jobspec.ModeMPI}

	epr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: 3600, K: 50, Seed: useed})
	if err != nil {
		return err
	}
	const iters = 3
	want := epr.Clone().SerialRun(iters)
	var flat []float64
	for _, b := range want {
		flat = append(flat, b...)
	}
	for _, mode := range modes {
		res, err := onRuntime(func(rt *hmpi.Runtime) (em3d.Result, error) {
			ro := em3d.RunOptions{Iters: iters, RealMath: true}
			if mode == jobspec.ModeHMPI {
				return em3d.RunHMPI(rt, epr, ro)
			}
			return em3d.RunMPI(rt, epr, ro)
		})
		if err != nil {
			return fmt.Errorf("em3d %s: %w", mode, err)
		}
		var got []float64
		for _, b := range res.Field {
			got = append(got, b...)
		}
		if err := sameBits(got, flat); err != nil {
			return fmt.Errorf("em3d %s differs from SerialRun: %w", mode, err)
		}
	}

	mpr, err := matmul.Generate(matmul.Config{M: 3, R: 2, N: 12, RealMath: true, Seed: useed})
	if err != nil {
		return err
	}
	wantC := mpr.SerialMultiply()
	for _, mode := range modes {
		res, err := onRuntime(func(rt *hmpi.Runtime) (matmul.Result, error) {
			ro := matmul.RunOptions{CollectC: true}
			if mode == jobspec.ModeHMPI {
				return matmul.RunHMPI(rt, mpr, []int{3, 6, 12}, ro)
			}
			return matmul.RunMPI(rt, mpr, ro)
		})
		if err != nil {
			return fmt.Errorf("matmul %s: %w", mode, err)
		}
		if err := sameBits(res.C, wantC); err != nil {
			return fmt.Errorf("matmul %s differs from SerialMultiply: %w", mode, err)
		}
	}

	jpr, err := jacobi.Generate(jacobi.Config{Rows: 45, Cols: 31, Iters: 6, P: 9, RealMath: true, Seed: useed})
	if err != nil {
		return err
	}
	wantJ := jpr.SerialRun()
	for _, mode := range modes {
		res, err := onRuntime(func(rt *hmpi.Runtime) (jacobi.Result, error) {
			if mode == jobspec.ModeHMPI {
				return jacobi.RunHMPI(rt, jpr, true)
			}
			return jacobi.RunMPI(rt, jpr, true)
		})
		if err != nil {
			return fmt.Errorf("jacobi %s: %w", mode, err)
		}
		if err := sameBits(res.Field, wantJ); err != nil {
			return fmt.Errorf("jacobi %s differs from SerialRun: %w", mode, err)
		}
	}
	return nil
}

// onRuntime runs one application (its RunHMPI or RunMPI) on a fresh
// Paper9 runtime under the watchdog.
func onRuntime[T any](run func(rt *hmpi.Runtime) (T, error)) (T, error) {
	return watchdog(jobTimeout, func() (T, error) {
		rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
		if err != nil {
			var zero T
			return zero, err
		}
		defer rt.Finalize()
		return run(rt)
	})
}

// sameResult reports whether two executions of one spec agree on every
// simulated figure, bit for bit.
func sameResult(a, b *jobspec.Result) bool {
	return math.Float64bits(float64(a.Makespan)) == math.Float64bits(float64(b.Makespan)) &&
		math.Float64bits(float64(a.Time)) == math.Float64bits(float64(b.Time)) &&
		math.Float64bits(a.Predicted) == math.Float64bits(b.Predicted)
}

// refTable keeps the first result seen per spec and checks that every
// later execution of that spec agrees with it. Safe for concurrent use.
type refTable struct {
	mu    sync.Mutex
	first map[string]*jobspec.Result
	specs map[string]jobspec.Spec
	err   error
}

func newRefTable() *refTable {
	return &refTable{first: make(map[string]*jobspec.Result), specs: make(map[string]jobspec.Spec)}
}

func (t *refTable) observe(s jobspec.Spec, key string, r *jobspec.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.first[key]
	if !ok {
		t.first[key], t.specs[key] = r, s
		return
	}
	if !sameResult(f, r) && t.err == nil {
		t.err = fmt.Errorf("spec %s: makespan %v then %v: the simulation is not deterministic",
			key, float64(f.Makespan), float64(r.Makespan))
	}
}

// failure is the first disagreement observed, or nil.
func (t *refTable) failure() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// results copies the first result per spec key.
func (t *refTable) results() map[string]*jobspec.Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*jobspec.Result, len(t.first))
	for k, r := range t.first {
		out[k] = r
	}
	return out
}

// spec returns the spec observed under key.
func (t *refTable) spec(key string) jobspec.Spec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.specs[key]
}

// simFigures are the exact simulated metrics of a spec list: they depend
// on the seed only, never on how many jobs the timed phase completed.
type simFigures struct {
	makespanS float64 // mean HMPI-mode Result.Makespan
	speedupX  float64 // sum of MPI-mode Time over sum of HMPI-mode Time
	timeofPct float64 // mean |Predicted - Time| / Time over HMPI-mode jobs, in %
	hmpiJobs  int
}

// simulate computes the exact figures for the HMPI-mode specs of list,
// taking results from known (keyed by specKey) where present and
// executing the rest, MPI-mode twins included, serially and uncached.
func simulate(list []jobspec.Spec, known map[string]*jobspec.Result) (simFigures, error) {
	get := func(s jobspec.Spec) (*jobspec.Result, error) {
		k := specKey(s)
		if r, ok := known[k]; ok {
			return r, nil
		}
		r, err := execute(s, jobspec.ExecOptions{}, jobTimeout)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", k, err)
		}
		known[k] = r
		return r, nil
	}
	var f simFigures
	var sumH, sumM, errSum float64
	for _, s := range list {
		if s.Mode != jobspec.ModeHMPI {
			continue
		}
		h, err := get(s)
		if err != nil {
			return f, err
		}
		m, err := get(twin(s))
		if err != nil {
			return f, err
		}
		f.hmpiJobs++
		f.makespanS += float64(h.Makespan)
		sumH += float64(h.Time)
		sumM += float64(m.Time)
		errSum += math.Abs(h.Predicted-float64(h.Time)) / float64(h.Time)
	}
	if f.hmpiJobs == 0 || sumH <= 0 {
		return f, fmt.Errorf("no HMPI-mode job with positive time in the spec list")
	}
	f.makespanS /= float64(f.hmpiJobs)
	f.speedupX = sumM / sumH
	f.timeofPct = 100 * errSum / float64(f.hmpiJobs)
	return f, nil
}
