package em3d

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hmpi"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// Field snapshots returned by runs, for verification: E values per body.
type Field [][]float64

// snapshotE copies the E values of all bodies.
func (pr *Problem) snapshotE() Field {
	out := make(Field, len(pr.Bodies))
	for i, b := range pr.Bodies {
		out[i] = append([]float64(nil), b.E...)
	}
	return out
}

// Clone deep-copies the problem so independent runs start from the same
// initial field values.
func (pr *Problem) Clone() *Problem {
	cp := &Problem{K: pr.K, FlopsPerNode: pr.FlopsPerNode, Light: pr.Light, DepH: pr.DepH, DepE: pr.DepE}
	for _, b := range pr.Bodies {
		cp.Bodies = append(cp.Bodies, &Body{
			E: append([]float64(nil), b.E...), H: append([]float64(nil), b.H...),
			EDeps: b.EDeps, HDeps: b.HDeps,
		})
	}
	return cp
}

// ownCopy returns the view one rank runs on: body me is deep-copied, so
// the rank's updates never touch pr, and every other body is shared with
// pr. The parallel algorithm reads other bodies' values only through the
// halo (their lengths aside), so sharing them is safe.
func (pr *Problem) ownCopy(me int) *Problem {
	cp := *pr
	cp.Bodies = append([]*Body(nil), pr.Bodies...)
	b := pr.Bodies[me]
	cp.Bodies[me] = &Body{
		E: append([]float64(nil), b.E...), H: append([]float64(nil), b.H...),
		EDeps: b.EDeps, HDeps: b.HDeps,
	}
	return &cp
}

// halo holds one exchange phase's received boundary values: halo[j] is a
// dense array over body j's field, non-nil exactly for the bodies the
// rank reads from. One halo serves a whole run: every index read from
// body j is in dep[me][j] and rewritten by each exchange, so the entries
// outside it are never read.
type halo [][]float64

func newHalo(pr *Problem, me int, dep [][][]int, field func(int) []float64) halo {
	h := make(halo, len(pr.Bodies))
	for j := range h {
		if j != me && len(dep[me][j]) > 0 {
			h[j] = make([]float64, len(field(j)))
		}
	}
	return h
}

// fill scatters the boundary values received from body j into its dense
// array, decoding the payload in place.
func (h halo) fill(me, j int, idx []int, data []byte) error {
	if len(data) != 8*len(idx) {
		return fmt.Errorf("em3d: body %d received %d bytes from %d, want %d values",
			me, len(data), j, len(idx))
	}
	dense := h[j]
	for k, i := range idx {
		dense[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
	}
	return nil
}

// packBoundary encodes the values of field at the given indices: the
// payload one neighbour needs.
func packBoundary(field []float64, idx []int) []byte {
	out := make([]byte, 8*len(idx))
	for k, i := range idx {
		binary.LittleEndian.PutUint64(out[8*k:], math.Float64bits(field[i]))
	}
	return out
}

// lookupH resolves an H-node dependency of body `me`.
func (pr *Problem) lookupH(me int, ref NodeRef, remote halo) float64 {
	switch {
	case ref.Body < 0:
		return pr.Bodies[me].H[ref.Index]
	case remote == nil:
		return pr.Bodies[ref.Body].H[ref.Index] // serial path
	}
	return remote[ref.Body][ref.Index]
}

func (pr *Problem) lookupE(me int, ref NodeRef, remote halo) float64 {
	switch {
	case ref.Body < 0:
		return pr.Bodies[me].E[ref.Index]
	case remote == nil:
		return pr.Bodies[ref.Body].E[ref.Index]
	}
	return remote[ref.Body][ref.Index]
}

// computeE updates the E values of body `me` from (local and remote) H
// values. remote holds the received H boundary values of the neighbours;
// nil remote reads neighbour bodies directly (serial).
func (pr *Problem) computeE(me int, remote halo) {
	b := pr.Bodies[me]
	for n := range b.E {
		sum := 0.0
		for _, ref := range b.EDeps[n] {
			sum += pr.lookupH(me, ref, remote)
		}
		b.E[n] = 0.9*b.E[n] + 0.1*sum/float64(len(b.EDeps[n]))
	}
}

// computeH updates the H values of body `me` from E values.
func (pr *Problem) computeH(me int, remote halo) {
	b := pr.Bodies[me]
	for n := range b.H {
		sum := 0.0
		for _, ref := range b.HDeps[n] {
			sum += pr.lookupE(me, ref, remote)
		}
		b.H[n] = 0.9*b.H[n] + 0.1*sum/float64(len(b.HDeps[n]))
	}
}

// SerialRun is the reference implementation: it updates all subbodies in
// sequence for the given number of iterations and returns the final E
// field. The update order matches the parallel algorithm (all E phases
// read the previous H values), so results agree bit-for-bit.
func (pr *Problem) SerialRun(iters int) Field {
	for it := 0; it < iters; it++ {
		for me := range pr.Bodies {
			pr.computeE(me, nil)
		}
		for me := range pr.Bodies {
			pr.computeH(me, nil)
		}
	}
	return pr.snapshotE()
}

// RunOptions tune a parallel run.
type RunOptions struct {
	// Iters is the number of simulation iterations.
	Iters int
	// RealMath performs the actual floating-point updates (for
	// verification at small sizes). When false, only the simulated
	// computation time is charged; transferred buffers keep their
	// correct sizes.
	RealMath bool
	// Overlap switches the halo exchange to the post-early/compute/wait
	// schedule: receives are posted before the sends, the interior nodes
	// (those reading no remote values) are computed while the boundary
	// values travel, and only the boundary nodes wait for the exchange.
	// Field results are bit-identical to the blocking schedule; only the
	// simulated time changes.
	Overlap bool
}

// tags for the two exchange phases.
const (
	tagHBoundary = 1
	tagEBoundary = 2
)

// RunParallel executes the parallel EM3D algorithm on the given
// communicator: communicator rank i computes subbody i. The communicator
// size must equal the number of subbodies. This one function serves both
// the plain-MPI baseline and the HMPI version — exactly as in the paper,
// where the computational code of the two programs is identical and only
// group creation differs. Rank i writes only pr.Bodies[i]; of the other
// bodies it reads nothing but their sizes.
func RunParallel(comm *mpi.Comm, pr *Problem, opts RunOptions) error {
	p := len(pr.Bodies)
	if comm.Size() != p {
		return fmt.Errorf("em3d: %d processes for %d subbodies", comm.Size(), p)
	}
	if opts.RealMath && pr.Light {
		return fmt.Errorf("em3d: a Light problem has no dependency lists; real math impossible")
	}
	me := comm.Rank()
	body := pr.Bodies[me]
	remoteH := newHalo(pr, me, pr.DepH, func(j int) []float64 { return pr.Bodies[j].H })
	remoteE := newHalo(pr, me, pr.DepE, func(j int) []float64 { return pr.Bodies[j].E })
	if opts.Overlap {
		return runOverlap(comm, pr, opts, remoteH, remoteE)
	}

	for it := 0; it < opts.Iters; it++ {
		// Phase 1: gather remote H boundary values, then compute E.
		if err := exchangeBoundary(comm, pr, me, tagHBoundary, pr.DepH, body.H, remoteH); err != nil {
			return err
		}
		comm.Proc().Compute(pr.KernelUnits(len(body.E)))
		if opts.RealMath {
			pr.computeE(me, remoteH)
		}
		// Phase 2: gather remote E boundary values, then compute H.
		if err := exchangeBoundary(comm, pr, me, tagEBoundary, pr.DepE, body.E, remoteE); err != nil {
			return err
		}
		comm.Proc().Compute(pr.KernelUnits(len(body.H)))
		if opts.RealMath {
			pr.computeH(me, remoteE)
		}
	}
	return nil
}

// boundarySplit counts, for one dependency list, the nodes that read any
// remote value (boundary) and those that read only local ones (interior):
// the interior update can run while the halo exchange is in flight.
// Boundary references exist even on Light problems (only the local lists
// are skipped there), so the split is available on timing-only runs too.
func boundarySplit(deps [][]NodeRef) (interior, boundary int) {
	for _, refs := range deps {
		remote := false
		for _, ref := range refs {
			if ref.Body >= 0 {
				remote = true
				break
			}
		}
		if remote {
			boundary++
		} else {
			interior++
		}
	}
	return interior, boundary
}

// runOverlap is the overlapped schedule of RunParallel: per phase it
// posts the halo receives first, then the sends, computes the interior
// nodes while the boundary values travel, waits for the receives, and
// finishes with the boundary nodes. The send requests complete at the
// end of the phase, after the compute they were hidden behind.
func runOverlap(comm *mpi.Comm, pr *Problem, opts RunOptions, remoteH, remoteE halo) error {
	me := comm.Rank()
	body := pr.Bodies[me]
	proc := comm.Proc()
	intE, bndE := boundarySplit(body.EDeps)
	intH, bndH := boundarySplit(body.HDeps)
	for it := 0; it < opts.Iters; it++ {
		// Phase 1: exchange H boundaries behind the interior E update.
		ex := postBoundary(comm, pr, me, tagHBoundary, pr.DepH, body.H)
		proc.Compute(pr.KernelUnits(intE))
		if err := ex.wait(me, pr.DepH, remoteH); err != nil {
			return err
		}
		proc.Compute(pr.KernelUnits(bndE))
		if opts.RealMath {
			pr.computeE(me, remoteH)
		}
		mpi.WaitAll(ex.sends)
		// Phase 2: exchange E boundaries behind the interior H update.
		ex = postBoundary(comm, pr, me, tagEBoundary, pr.DepE, body.E)
		proc.Compute(pr.KernelUnits(intH))
		if err := ex.wait(me, pr.DepE, remoteE); err != nil {
			return err
		}
		proc.Compute(pr.KernelUnits(bndH))
		if opts.RealMath {
			pr.computeH(me, remoteE)
		}
		mpi.WaitAll(ex.sends)
	}
	return nil
}

// boundaryExchange is one in-flight halo exchange: the receive requests
// (with the body each came from) and the send requests, completed
// separately so sends can ride behind the whole phase.
type boundaryExchange struct {
	recvs   []*mpi.Request
	recvSrc []int
	sends   []*mpi.Request
}

// postBoundary starts an overlapped halo exchange: the receives are
// posted before the sends (post-early, so arriving values land in the
// already-posted requests), and the call returns without blocking.
func postBoundary(comm *mpi.Comm, pr *Problem, me, tag int, dep [][][]int, mine []float64) *boundaryExchange {
	p := len(pr.Bodies)
	ex := &boundaryExchange{}
	for j := 0; j < p; j++ {
		if j == me || len(dep[me][j]) == 0 {
			continue
		}
		ex.recvs = append(ex.recvs, comm.Irecv(j, tag))
		ex.recvSrc = append(ex.recvSrc, j)
	}
	for i := 0; i < p; i++ {
		if i == me || len(dep[i][me]) == 0 {
			continue
		}
		ex.sends = append(ex.sends, comm.IsendOwned(i, tag, packBoundary(mine, dep[i][me])))
	}
	return ex
}

// wait completes the receive half of the exchange and scatters the
// payloads into the halo, like exchangeBoundary's receive loop. The send
// requests stay pending for the caller.
func (ex *boundaryExchange) wait(me int, dep [][][]int, remote halo) error {
	for k, r := range ex.recvs {
		data, _ := r.Wait()
		j := ex.recvSrc[k]
		if err := remote.fill(me, j, dep[me][j], data); err != nil {
			return err
		}
	}
	return nil
}

// exchangeBoundary sends the boundary values others need from subbody
// `me`, whose current field values are mine, and receives the values `me`
// needs into the halo remote. dep[i][j] lists indices of body j's field
// that body i reads.
func exchangeBoundary(comm *mpi.Comm, pr *Problem, me, tag int, dep [][][]int, mine []float64, remote halo) error {
	p := len(pr.Bodies)
	// Send to every body i that needs our values.
	var reqs []*mpi.Request
	for i := 0; i < p; i++ {
		if i == me || len(dep[i][me]) == 0 {
			continue
		}
		reqs = append(reqs, comm.IsendOwned(i, tag, packBoundary(mine, dep[i][me])))
	}
	// Receive what we need, scattered into dense arrays the compute phase
	// can index by original node index.
	for j := 0; j < p; j++ {
		if j == me || len(dep[me][j]) == 0 {
			continue
		}
		data, _ := comm.Recv(j, tag)
		if err := remote.fill(me, j, dep[me][j], data); err != nil {
			return err
		}
	}
	mpi.WaitAll(reqs)
	return nil
}

// Result reports one parallel run.
type Result struct {
	// Time is the simulated execution time of the algorithm proper
	// (excluding Recon and group management), the quantity Figure 9
	// plots.
	Time vclock.Time
	// Selection is the world ranks running each subbody.
	Selection []int
	// Predicted is HMPI_Timeof's prediction for one iteration of the
	// algorithm on the selected group (HMPI runs only).
	Predicted float64
	// Field is the final E field (only when RealMath was set).
	Field Field
}

// RunHMPI executes the full HMPI program of Figure 5: Recon with the
// serial EM3D benchmark, group creation from the Em3d performance model,
// the parallel algorithm over the group's communicator, and group release.
func RunHMPI(rt *hmpi.Runtime, pr *Problem, opts RunOptions) (Result, error) {
	var res Result
	model := Model()
	err := rt.Run(func(h *hmpi.Process) error {
		// HMPI_Recon: the benchmark is the serial EM3D kernel over K
		// nodes, truly representative of the application.
		bench := hmpi.BenchmarkFunc{
			Units: 1,
			Run: func(p *mpi.Proc) error {
				p.Compute(pr.KernelUnits(pr.K))
				return nil
			},
		}
		if err := h.Recon(bench); err != nil {
			return err
		}
		var g *hmpi.Group
		var err error
		if h.IsHost() {
			// The model describes one iteration; the prediction for
			// the whole run is iters times it.
			pred, err := h.Timeof(model, pr.ModelArgs()...)
			if err != nil {
				return err
			}
			res.Predicted = pred * float64(opts.Iters)
			// Record the prediction under the phase name the region
			// below uses, so the predicted-vs-observed report joins
			// them.
			h.Proc().TracePredict("em3d", res.Predicted)
		}
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, pr.ModelArgs()...)
			if err != nil {
				return err
			}
		}
		if !h.IsMember(g) {
			return nil
		}
		comm := g.Comm()
		local := pr.ownCopy(comm.Rank())
		h.Proc().TraceRegionBegin("em3d")
		start := h.Proc().Now()
		if err := RunParallel(comm, local, opts); err != nil {
			return err
		}
		comm.Barrier() // measure until the last process finishes
		elapsed := h.Proc().Now() - start
		h.Proc().TraceRegionEnd("em3d")
		if h.IsHost() {
			res.Time = elapsed
			res.Selection = g.WorldRanks()
			if opts.RealMath {
				res.Field = gatherField(comm, local)
			}
		} else if opts.RealMath {
			gatherField(comm, local)
		}
		return h.GroupFree(g)
	})
	return res, err
}

// RunMPI executes the plain-MPI baseline of Figure 3: the group running
// the algorithm is the first p processes of the world in rank order,
// chosen without regard to machine speeds.
func RunMPI(rt *hmpi.Runtime, pr *Problem, opts RunOptions) (Result, error) {
	var res Result
	p := len(pr.Bodies)
	err := rt.Run(func(h *hmpi.Process) error {
		world := h.CommWorld()
		color := 0
		if h.Rank() >= p {
			color = mpi.Undefined
		}
		comm := world.Split(color, h.Rank())
		if comm == nil {
			return nil
		}
		local := pr.ownCopy(comm.Rank())
		start := h.Proc().Now()
		if err := RunParallel(comm, local, opts); err != nil {
			return err
		}
		comm.Barrier()
		elapsed := h.Proc().Now() - start
		if comm.Rank() == 0 {
			res.Time = elapsed
			res.Selection = identity(p)
			if opts.RealMath {
				res.Field = gatherField(comm, local)
			}
		} else if opts.RealMath {
			gatherField(comm, local)
		}
		return nil
	})
	return res, err
}

// gatherField collects the final E field on the communicator's rank 0.
func gatherField(comm *mpi.Comm, pr *Problem) Field {
	mine := pr.Bodies[comm.Rank()].E
	all := comm.Gather(0, mpi.Float64Bytes(mine))
	if all == nil {
		return nil
	}
	out := make(Field, len(all))
	for i, b := range all {
		out[i] = mpi.BytesFloat64(b)
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
