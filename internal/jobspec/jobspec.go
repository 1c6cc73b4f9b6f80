// Package jobspec is the single definition of an HMPI job: which
// demonstration application to run, on which cluster, in which mode, with
// which workload dimensions and fault schedule. Both front ends consume
// it — cmd/hmpirun parses one job from flags and runs it in-process,
// cmd/hmpid accepts many as JSON over the control socket and runs them
// through the service's worker pool — so application and topology options
// cannot drift between the two binaries.
package jobspec

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/mapper"
)

// Modes. ModeBoth is a front-end convenience (run ModeHMPI then ModeMPI);
// Execute itself takes exactly one run.
const (
	ModeHMPI = "hmpi"
	ModeMPI  = "mpi"
	ModeBoth = "both"
)

// Spec describes one job. The zero value is not runnable; start from
// Default() or fill every field the chosen app needs, then Normalize.
// The JSON form is the hmpid submission payload.
type Spec struct {
	// App selects the application: "em3d", "matmul" or "jacobi".
	App string `json:"app"`
	// Mode selects HMPI group selection ("hmpi", the default) or the
	// plain-MPI baseline ("mpi").
	Mode string `json:"mode,omitempty"`
	// Cluster is the network to simulate; nil means the paper's
	// nine-workstation network (hnoc.Paper9).
	Cluster *hnoc.Cluster `json:"cluster,omitempty"`

	// Nodes, P and Iters parameterise em3d (P and Iters also jacobi).
	Nodes int `json:"nodes,omitempty"`
	P     int `json:"p,omitempty"`
	Iters int `json:"iters,omitempty"`
	// N, R, L and M parameterise matmul; L = 0 searches block sizes.
	N int `json:"n,omitempty"`
	R int `json:"r,omitempty"`
	L int `json:"l,omitempty"`
	M int `json:"m,omitempty"`
	// Grid is jacobi's square grid dimension.
	Grid int `json:"grid,omitempty"`

	// Chaos is a fault schedule (see chaos.Parse; empty = none),
	// ChaosSeed seeds its probabilistic draws, and Degrade lets the
	// runtime fold chronically lossy links into the cost model.
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaos_seed,omitempty"`
	Degrade   bool   `json:"degrade,omitempty"`

	// Tenant attributes the job for the service's fairness accounting
	// and budgets. Ignored by hmpirun.
	Tenant string `json:"tenant,omitempty"`
}

// ErrTooFewProcesses reports a well-formed spec whose algorithm needs more
// processes than its cluster runs (one per machine). Normalize returns it
// wrapped with the counts.
var ErrTooFewProcesses = errors.New("jobspec: not enough processes")

// Default returns the spec hmpirun's flag defaults describe: em3d, HMPI
// mode, the paper's network and workload sizes.
func Default() Spec {
	return Spec{
		App: "em3d", Mode: ModeHMPI,
		Nodes: 400_000, P: 9, Iters: 10,
		N: 90, R: 9, L: 9, M: 3,
		Grid:      1800,
		ChaosSeed: 1,
	}
}

// Normalize fills defaulted fields from Default() and validates the
// combination. It is idempotent; Execute and Predict call it themselves.
func (s *Spec) Normalize() error {
	d := Default()
	if s.Mode == "" {
		s.Mode = d.Mode
	}
	if s.Nodes == 0 {
		s.Nodes = d.Nodes
	}
	if s.P == 0 {
		s.P = d.P
	}
	if s.Iters == 0 {
		s.Iters = d.Iters
	}
	if s.N == 0 {
		s.N = d.N
	}
	if s.R == 0 {
		s.R = d.R
	}
	if s.M == 0 {
		s.M = d.M
	}
	if s.Grid == 0 {
		s.Grid = d.Grid
	}
	if s.ChaosSeed == 0 {
		s.ChaosSeed = d.ChaosSeed
	}
	switch s.App {
	case "em3d", "matmul", "jacobi":
	case "":
		return fmt.Errorf("jobspec: no app")
	default:
		return fmt.Errorf("jobspec: unknown app %q", s.App)
	}
	switch s.Mode {
	case ModeHMPI, ModeMPI:
	case ModeBoth:
		return fmt.Errorf("jobspec: mode %q is a front-end convenience; execute one mode at a time", ModeBoth)
	default:
		return fmt.Errorf("jobspec: unknown mode %q", s.Mode)
	}
	if s.Chaos != "" {
		if s.Mode != ModeHMPI {
			return fmt.Errorf("jobspec: chaos needs the HMPI mode: the plain MPI baseline has no recovery")
		}
		if s.App == "jacobi" {
			return fmt.Errorf("jobspec: chaos supports em3d and matmul only")
		}
		if s.App == "matmul" && s.L <= 0 {
			return fmt.Errorf("jobspec: chaos needs a fixed matmul block size l: the resilient driver does not search")
		}
	}
	if s.Degrade && s.Chaos == "" {
		return fmt.Errorf("jobspec: degrade reacts to link faults; give it some with a chaos schedule")
	}
	if s.Cluster != nil {
		if err := s.Cluster.Validate(); err != nil {
			return err
		}
	}
	// The runtime places one process per machine; a job needing more
	// would leave the ranks that wait for a group blocked forever.
	have := paper9Size
	if s.Cluster != nil {
		have = s.Cluster.Size()
	}
	if need := s.processes(); need > have {
		return fmt.Errorf("%w: %s needs %d, the cluster runs %d", ErrTooFewProcesses, s.App, need, have)
	}
	return nil
}

// processes returns how many processes the job's algorithm runs on: P
// for em3d and jacobi, the M×M grid for matmul.
func (s *Spec) processes() int {
	if s.App == "matmul" {
		return s.M * s.M
	}
	return s.P
}

// paper9Size is the machine count of the default cluster, taken once so
// that Normalize does not build the cluster for every spec.
var paper9Size = hnoc.Paper9().Size()

// ClusterOrDefault returns the spec's cluster, or the paper's network.
func (s *Spec) ClusterOrDefault() *hnoc.Cluster {
	if s.Cluster != nil {
		return s.Cluster
	}
	return hnoc.Paper9()
}

// CandidateBlockSizes returns matmul's geometric sweep of generalised
// block sizes between m and n, the L=0 search space.
func CandidateBlockSizes(m, n int) []int {
	var out []int
	for l := m; l <= n; l *= 2 {
		out = append(out, l)
	}
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// Predict prices the job without running it: the predicted makespan (in
// simulated seconds) of the job's selection problem under the machines'
// nominal speeds, via hmpi.PredictTimeof. The service's admission control
// uses it to accept, queue, or reject at submit time. Mode and chaos are
// ignored — the price is the fault-free HMPI prediction, which bounds the
// useful work either mode schedules. A shared selection cache makes
// repeated pricing of similar specs nearly free.
func (s Spec) Predict(cache *mapper.SelectionCache) (float64, error) {
	if err := s.Normalize(); err != nil {
		return 0, err
	}
	cfg := hmpi.Config{Cluster: s.ClusterOrDefault(), Selection: cache}
	switch s.App {
	case "em3d":
		pr, err := em3d.Generate(em3d.Config{P: s.P, TotalNodes: s.Nodes, Light: true})
		if err != nil {
			return 0, err
		}
		t, _, err := hmpi.PredictTimeof(cfg, em3d.Model(), pr.ModelArgs()...)
		if err != nil {
			return 0, err
		}
		return t * float64(s.Iters), nil
	case "matmul":
		pr, err := matmul.Generate(matmul.Config{M: s.M, R: s.R, N: s.N})
		if err != nil {
			return 0, err
		}
		speeds := nominalSpeeds(cfg.Cluster)
		grid, _, err := matmul.ArrangeGrid(speeds, hmpi.HostRank, pr.M)
		if err != nil {
			return 0, err
		}
		ls := []int{s.L}
		if s.L <= 0 {
			ls = CandidateBlockSizes(pr.M, pr.N)
		}
		best := math.Inf(1)
		for _, l := range ls {
			d, err := matmul.NewHetero(grid, l, pr.N, pr.R)
			if err != nil {
				return 0, err
			}
			t, _, err := hmpi.PredictTimeof(cfg, matmul.Model(), d.ModelArgs()...)
			if err != nil {
				return 0, err
			}
			if t < best {
				best = t
			}
		}
		return best, nil
	case "jacobi":
		pr, err := jacobi.Generate(jacobi.Config{Rows: s.Grid, Cols: s.Grid, Iters: s.Iters, P: s.P})
		if err != nil {
			return 0, err
		}
		// Strip speeds as the run would build them: host first, then
		// the rest fastest-first.
		speeds := nominalSpeeds(cfg.Cluster)
		rest := append([]float64(nil), speeds[hmpi.HostRank+1:]...)
		rest = append(rest, speeds[:hmpi.HostRank]...)
		sort.Sort(sort.Reverse(sort.Float64Slice(rest)))
		strip := append([]float64{speeds[hmpi.HostRank]}, rest...)
		if len(strip) > pr.P {
			strip = strip[:pr.P]
		}
		heights, err := pr.Heights(strip)
		if err != nil {
			return 0, err
		}
		t, _, err := hmpi.PredictTimeof(cfg, jacobi.Model(), pr.ModelArgs(heights)...)
		if err != nil {
			return 0, err
		}
		return t * float64(pr.Iters), nil
	}
	return 0, fmt.Errorf("jobspec: unknown app %q", s.App)
}

// nominalSpeeds returns the pre-Recon speed estimate per world rank under
// the default one-process-per-machine placement.
func nominalSpeeds(c *hnoc.Cluster) []float64 {
	out := make([]float64, len(c.Machines))
	for i, m := range c.Machines {
		out[i] = m.Speed
	}
	return out
}
