package main

// The three workloads. Each is generated from its seed alone; the program
// under test only ever sees the specs and clusters built here.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/hnoc"
	"repro/internal/jobspec"
)

// Workload names, as --workload takes them.
const (
	wPaper9      = "paper9"
	wScaleSelect = "scale-select"
	wHmpidMix    = "hmpid-mix"
)

var workloadNames = []string{wPaper9, wScaleSelect, wHmpidMix}

// specKey identifies a spec by its full JSON form (cluster included), so
// two submissions are "the same job" exactly when the daemon would see
// identical payloads.
func specKey(s jobspec.Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("benchmark: spec does not marshal: %v", err))
	}
	return string(b)
}

// twin returns the plain-MPI baseline of an HMPI spec.
func twin(s jobspec.Spec) jobspec.Spec {
	s.Mode = jobspec.ModeMPI
	return s
}

// paper9Specs is the paper's evaluation on hnoc.Paper9: EM3D at the
// Figure 9 node counts (10 iterations, P=9), matmul at the Figure 11
// matrix sizes (r=l=9) and Jacobi, each in HMPI and MPI mode. The seed
// jitters the EM3D and Jacobi sizes by a few percent, so seeds differ
// while the mix, and the paper's ratios, stay put. The order is fixed:
// a job's host time depends on the garbage its predecessor left, so a
// seeded order would make every seed measure a different sequence.
func paper9Specs(seed int64) []jobspec.Spec {
	rng := rand.New(rand.NewSource(seed))
	var hm []jobspec.Spec
	for _, n := range []int{100_000, 200_000, 300_000, 400_000, 600_000, 800_000} {
		nodes := int(math.Round(float64(n)*(0.95+0.1*rng.Float64())/1000)) * 1000
		hm = append(hm, jobspec.Spec{App: "em3d", Mode: jobspec.ModeHMPI, Nodes: nodes, P: 9, Iters: 10})
	}
	for _, n := range []int{45, 90, 135, 180, 225, 270} {
		// Exact Figure 11 sizes: the n^3 cost of the largest would
		// swing the mean makespan with any jitter.
		hm = append(hm, jobspec.Spec{App: "matmul", Mode: jobspec.ModeHMPI, N: n, R: 9, L: 9, M: 3})
	}
	for _, g := range []int{900, 1350, 1800, 2250, 2700} {
		grid := int(math.Round(float64(g)*(0.95+0.1*rng.Float64())/10)) * 10
		hm = append(hm, jobspec.Spec{App: "jacobi", Mode: jobspec.ModeHMPI, Grid: grid, P: 9, Iters: 10})
	}
	var out []jobspec.Spec
	for _, s := range hm {
		out = append(out, s, twin(s))
	}
	// Figure 10's HMPI_Timeof search over block sizes, HMPI mode only:
	// it makes the list 35 long, see cycleLen.
	return append(out, jobspec.Spec{App: "matmul", Mode: jobspec.ModeHMPI, N: 90, R: 9, L: 0, M: 3})
}

// randomCluster is a seeded heterogeneous network of n machines, one
// process each, on the paper's switched Ethernet. Speeds spread over the
// paper's 9..176 range.
func randomCluster(rng *rand.Rand, name string, n int) *hnoc.Cluster {
	c := &hnoc.Cluster{Remote: hnoc.Ethernet100(), Local: hnoc.SharedMemory()}
	for i := 0; i < n; i++ {
		speed := math.Round((9+167*rng.Float64())*10) / 10
		c.Machines = append(c.Machines, hnoc.Machine{Name: fmt.Sprintf("%s-%03d", name, i), Speed: speed})
	}
	return c
}

// scaleSelectSpecs is group selection at growing machine counts: small
// HMPI-mode problems on seeded clusters of 9, 64 and 256 machines with P
// up to 32, plus matmul with l=0 (a Timeof search over block sizes) on
// Paper9. Every spec is distinct: each job on a 64- or 256-machine tier
// that repeats a shape gets a cluster of its own. The seed draws the
// machine speeds and jitters the problem sizes by a few percent.
//
// The list is built so that p50 and p90 each fall in the middle of a
// block of jobs of one shape, so the percentiles measure that shape
// rather than which of two neighbouring shapes a seed happens to put at
// the percentile's rank. In host-time order the 25 specs are:
//
//	 1-9   all three apps on 9 machines, jacobi and em3d P=16 on 64
//	10-16  em3d P=32 on six 64-machine clusters, and the l=0 matmul   (p50)
//	17-20  matmul on 64, em3d P=16 and jacobi P=32 on 256
//	21-25  em3d P=32 on five 256-machine clusters                     (p90)
//
// Shapes whose host time overlaps a block's (jacobi P=32 on 64 machines,
// matmul on 256) are left out.
func scaleSelectSpecs(seed int64) []jobspec.Spec {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(n, unit int) int {
		return int(math.Round(float64(n)*(0.95+0.1*rng.Float64())/float64(unit))) * unit
	}
	em3d := func(c *hnoc.Cluster, p int) jobspec.Spec {
		return jobspec.Spec{App: "em3d", Cluster: c, Nodes: jitter(20_000, 1000), P: p, Iters: 2}
	}
	jac := func(c *hnoc.Cluster, p int) jobspec.Spec {
		return jobspec.Spec{App: "jacobi", Cluster: c, Grid: jitter(300, 10), P: p, Iters: 3}
	}
	mm := func(c *hnoc.Cluster) jobspec.Spec {
		return jobspec.Spec{App: "matmul", Cluster: c, N: 24 + 3*rng.Intn(2), R: 4, L: 9, M: 3}
	}
	clusters := func(m, n int) []*hnoc.Cluster {
		cs := make([]*hnoc.Cluster, n)
		for k := range cs {
			cs[k] = randomCluster(rng, fmt.Sprintf("s%d%c", m, 'a'+k), m)
		}
		return cs
	}
	var out []jobspec.Spec
	for _, c := range clusters(9, 2) {
		out = append(out, em3d(c, 8), jac(c, 8), mm(c))
	}
	c64 := clusters(64, 6)
	out = append(out, jac(c64[0], 16), jac(c64[1], 16), em3d(c64[0], 16))
	for _, c := range c64 {
		out = append(out, em3d(c, 32))
	}
	out = append(out, jobspec.Spec{App: "matmul", N: 30, R: 4, L: 0, M: 3})
	out = append(out, mm(c64[0]), mm(c64[1]))
	c256 := clusters(256, 5)
	out = append(out, em3d(c256[0], 16), jac(c256[0], 32))
	for _, c := range c256 {
		out = append(out, em3d(c, 32))
	}
	for i := range out {
		out[i].Mode = jobspec.ModeHMPI
	}
	return out
}

// cycleLen documents the spec-list lengths: a closed loop cycles through
// the list, and percentiles are taken over whole cycles only, so every
// spec weighs the same. With a length of 5 mod 10 the nearest-rank p50
// and p90 fall in the middle of one spec's samples rather than on the
// edge between two specs, whose host times can differ by half.
var cycleLen = map[string]int{wPaper9: 35, wScaleSelect: 25}

// mixTenants are hmpid-mix's tenants; the last one runs on its own
// cluster, so the daemon's cache holds more than one namespace.
var mixTenants = []string{"acme", "globex", "initech", "umbrella"}

// mixRepeatShare is the probability that a submission repeats an
// earlier one, and mixWindow how many of the latest novel specs a repeat
// draws from. A fixed window gives every novel spec about the same number
// of repeats; drawing from the whole history would let the first few
// specs, repeated again and again, set a seed's mix of job sizes.
const (
	mixRepeatShare = 0.5
	mixWindow      = 32
)

// mixSource is hmpid-mix's submission sequence: a seeded multi-tenant
// stream of small em3d, jacobi and matmul jobs in which about half of the
// submissions repeat one of the mixWindow latest novel specs. Submission
// i is the same for a given seed whichever client asks for it. Safe for
// concurrent use.
type mixSource struct {
	mu      sync.Mutex
	rng     *rand.Rand
	own     *hnoc.Cluster  // the last tenant's cluster
	novels  []jobspec.Spec // novel specs drawn so far
	seq     []jobspec.Spec
	repeats []bool // repeats[i]: seq[i] equals an earlier submission
	seen    map[string]bool
}

func newMixSource(seed int64) *mixSource {
	rng := rand.New(rand.NewSource(seed))
	return &mixSource{rng: rng, own: randomCluster(rng, "mix", 16), seen: make(map[string]bool)}
}

// at returns submission i and whether it repeats an earlier one.
func (m *mixSource) at(i int) (jobspec.Spec, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.seq) <= i {
		var s jobspec.Spec
		if n := len(m.novels); n > 0 && m.rng.Float64() < mixRepeatShare {
			s = m.novels[n-1-m.rng.Intn(min(n, mixWindow))]
		} else {
			s = m.novel()
		}
		k := specKey(s)
		m.seq = append(m.seq, s)
		m.repeats = append(m.repeats, m.seen[k])
		m.seen[k] = true
	}
	return m.seq[i], m.repeats[i]
}

// novel draws a fresh small job; the applications take turns, so every
// stretch of the sequence has the same mix. Draws can collide with
// earlier ones; the measured repeat share counts those too.
func (m *mixSource) novel() jobspec.Spec {
	rng := m.rng
	t := rng.Intn(len(mixTenants))
	s := jobspec.Spec{Mode: jobspec.ModeHMPI, Tenant: mixTenants[t]}
	if t == len(mixTenants)-1 {
		s.Cluster = m.own
	}
	// Fine-grained sizes keep chance collisions rare, so the repeat
	// share stays near mixRepeatShare however long the run.
	switch len(m.novels) % 3 {
	case 0:
		s.App, s.Nodes, s.P, s.Iters = "em3d", 100*(60+rng.Intn(241)), 4+rng.Intn(6), 1+rng.Intn(3)
	case 1:
		s.App, s.Grid, s.P, s.Iters = "jacobi", 2*(50+rng.Intn(151)), 4+rng.Intn(6), 2+rng.Intn(5)
	default:
		s.App, s.N, s.R, s.L, s.M = "matmul", 12+rng.Intn(12), 3+rng.Intn(2), 3+rng.Intn(9), 3
	}
	m.novels = append(m.novels, s)
	return s
}

// mixReferenceSpecs is hmpid-mix's seeded spec list for the exact
// simulated metrics: the first n distinct specs of the sequence.
func mixReferenceSpecs(seed int64, n int) []jobspec.Spec {
	src := newMixSource(seed)
	var out []jobspec.Spec
	for i := 0; len(out) < n; i++ {
		if s, rep := src.at(i); !rep {
			out = append(out, s)
		}
	}
	return out
}
