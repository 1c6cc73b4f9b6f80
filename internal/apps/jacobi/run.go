package jacobi

import (
	"fmt"

	"repro/internal/hmpi"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

const (
	tagDown = 1 // boundary row travelling to the strip below
	tagUp   = 2 // boundary row travelling to the strip above
)

// RunParallel executes the strip-decomposed relaxation on the
// communicator: rank i owns strip i with heights[i] interior rows. The
// identical code serves the uniform baseline and the HMPI version.
// With RealMath it returns the assembled final field on comm rank 0.
func RunParallel(comm *mpi.Comm, pr *Problem, heights []int, collect bool) ([]float64, error) {
	if comm.Size() != pr.P {
		return nil, fmt.Errorf("jacobi: %d processes for %d strips", comm.Size(), pr.P)
	}
	if len(heights) != pr.P {
		return nil, fmt.Errorf("jacobi: %d heights for %d strips", len(heights), pr.P)
	}
	total := 0
	start := 0
	me := comm.Rank()
	for r, h := range heights {
		if h <= 0 {
			return nil, fmt.Errorf("jacobi: non-positive strip height %d", h)
		}
		if r < me {
			start += h
		}
		total += h
	}
	if total != pr.Rows {
		return nil, fmt.Errorf("jacobi: heights sum to %d, want %d", total, pr.Rows)
	}

	w := pr.Cols + 2
	myH := heights[me]
	// Local strip with two ghost rows (row 0 and row myH+1).
	var cur, next []float64
	if pr.RealMath {
		cur = make([]float64, (myH+2)*w)
		next = make([]float64, (myH+2)*w)
		copy(cur, pr.Grid[start*w:(start+myH+2)*w])
		copy(next, cur)
	}
	rowBytes := pr.Cols * 8
	// Timing-only runs send one shared zero row: receivers never read it.
	var zeroRow []byte
	if !pr.RealMath {
		zeroRow = make([]byte, rowBytes)
	}

	up, down := me-1, me+1 // neighbouring strips
	for it := 0; it < pr.Iters; it++ {
		// Exchange boundary rows with the neighbours.
		var reqs []*mpi.Request
		if up >= 0 {
			payload := zeroRow
			if pr.RealMath {
				payload = mpi.Float64Bytes(cur[1*w+1 : 1*w+1+pr.Cols])
			}
			reqs = append(reqs, comm.IsendOwned(up, tagUp, payload))
		}
		if down < pr.P {
			payload := zeroRow
			if pr.RealMath {
				payload = mpi.Float64Bytes(cur[myH*w+1 : myH*w+1+pr.Cols])
			}
			reqs = append(reqs, comm.IsendOwned(down, tagDown, payload))
		}
		if up >= 0 {
			data, _ := comm.Recv(up, tagDown)
			if pr.RealMath {
				copy(cur[0*w+1:0*w+1+pr.Cols], mpi.BytesFloat64(data))
			}
		}
		if down < pr.P {
			data, _ := comm.Recv(down, tagUp)
			if pr.RealMath {
				copy(cur[(myH+1)*w+1:(myH+1)*w+1+pr.Cols], mpi.BytesFloat64(data))
			}
		}
		mpi.WaitAll(reqs)

		// Sweep the strip.
		comm.Proc().Compute(pr.KernelUnits(float64(myH)))
		if pr.RealMath {
			for i := 1; i <= myH; i++ {
				for j := 1; j <= pr.Cols; j++ {
					next[i*w+j] = 0.25 * (cur[(i-1)*w+j] + cur[(i+1)*w+j] + cur[i*w+j-1] + cur[i*w+j+1])
				}
			}
			cur, next = next, cur
		}
	}

	if !pr.RealMath || !collect {
		return nil, nil
	}
	// Assemble on rank 0: every rank contributes its interior rows.
	mine := mpi.Float64Bytes(cur[w : (myH+1)*w])
	parts := comm.Gather(0, mine)
	if parts == nil {
		return nil, nil
	}
	out := append([]float64(nil), pr.Grid...)
	row := 1
	for r := 0; r < pr.P; r++ {
		vals := mpi.BytesFloat64(parts[r])
		copy(out[row*w:row*w+len(vals)], vals)
		row += heights[r]
	}
	return out, nil
}

// Result reports one run.
type Result struct {
	Time      vclock.Time
	Selection []int
	Heights   []int
	Predicted float64
	Field     []float64
}

// RunHMPI executes the HMPI variant: Recon with the row kernel, strip
// heights from the measured speeds (host's strip first, then the fastest
// free processes in selection order), group creation from the Jacobi
// model, and the sweeps over the group's communicator.
func RunHMPI(rt *hmpi.Runtime, pr *Problem, collect bool) (Result, error) {
	var res Result
	model := Model()
	err := rt.Run(func(h *hmpi.Process) error {
		bench := hmpi.BenchmarkFunc{
			Units: 1,
			Run: func(p *mpi.Proc) error {
				p.Compute(pr.KernelUnits(1))
				return nil
			},
		}
		if err := h.Recon(bench); err != nil {
			return err
		}
		var g *hmpi.Group
		var hostHeights []int
		if h.IsHost() {
			// Strip speeds: the host first (it is the parent, strip
			// 0), then the other processes fastest-first — mirroring
			// the greedy order the selection will tend to choose.
			speeds := h.Speeds()
			order := speedOrder(speeds, hmpi.HostRank, pr.P)
			stripSpeeds := make([]float64, pr.P)
			for i, rank := range order {
				stripSpeeds[i] = speeds[rank]
			}
			var err error
			hostHeights, err = pr.Heights(stripSpeeds)
			if err != nil {
				return err
			}
			pred, err := h.Timeof(model, pr.ModelArgs(hostHeights)...)
			if err != nil {
				return err
			}
			res.Predicted = pred * float64(pr.Iters)
			h.Proc().TracePredict("jacobi", res.Predicted)
			g, err = h.GroupCreate(model, pr.ModelArgs(hostHeights)...)
			if err != nil {
				return err
			}
		} else if h.IsFree() {
			var err error
			g, err = h.GroupCreate(nil)
			if err != nil {
				return err
			}
		}
		if !h.IsMember(g) {
			return nil
		}
		comm := g.Comm()
		heights := bcastHeights(comm, hostHeights, pr.P)
		h.Proc().TraceRegionBegin("jacobi")
		start := h.Proc().Now()
		field, err := RunParallel(comm, pr, heights, collect)
		if err != nil {
			return err
		}
		comm.Barrier()
		elapsed := h.Proc().Now() - start
		h.Proc().TraceRegionEnd("jacobi")
		if h.IsHost() {
			res.Time = elapsed
			res.Selection = g.WorldRanks()
			res.Heights = heights
			res.Field = field
		}
		return h.GroupFree(g)
	})
	return res, err
}

// speedOrder returns process ranks ordered host-first then by descending
// speed, truncated to p entries.
func speedOrder(speeds []float64, host, p int) []int {
	order := []int{host}
	var rest []int
	for r := range speeds {
		if r != host {
			rest = append(rest, r)
		}
	}
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && speeds[rest[j]] > speeds[rest[j-1]]; j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	order = append(order, rest...)
	return order[:p]
}

// bcastHeights shares the host's strip heights with the group.
func bcastHeights(comm *mpi.Comm, heights []int, p int) []int {
	var payload []byte
	if comm.Rank() == 0 {
		payload = mpi.IntsBytes(heights)
	}
	payload = comm.Bcast(0, payload)
	return mpi.BytesInts(payload)
}

// RunMPI executes the baseline: uniform strips on the first P processes in
// rank order.
func RunMPI(rt *hmpi.Runtime, pr *Problem, collect bool) (Result, error) {
	var res Result
	heights := pr.UniformHeights()
	err := rt.Run(func(h *hmpi.Process) error {
		world := h.CommWorld()
		color := 0
		if h.Rank() >= pr.P {
			color = mpi.Undefined
		}
		comm := world.Split(color, h.Rank())
		if comm == nil {
			return nil
		}
		start := h.Proc().Now()
		field, err := RunParallel(comm, pr, heights, collect)
		if err != nil {
			return err
		}
		comm.Barrier()
		elapsed := h.Proc().Now() - start
		if comm.Rank() == 0 {
			res.Time = elapsed
			res.Heights = heights
			res.Selection = make([]int, pr.P)
			for i := range res.Selection {
				res.Selection[i] = i
			}
			res.Field = field
		}
		return nil
	})
	return res, err
}
