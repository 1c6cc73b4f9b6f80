package em3d

import (
	"repro/internal/hmpi"
	"repro/internal/vclock"
)

// FTResult reports a fault-tolerant run.
type FTResult struct {
	Result
	// Attempts is how many times the algorithm was started: 1 plus the
	// number of recoveries.
	Attempts int
	// WorkTime is the simulated duration of the final, successful attempt.
	WorkTime vclock.Time
	// Recovery is the simulated time lost to failed attempts and group
	// recreation: Time - WorkTime.
	Recovery vclock.Time
}

// RunResilientHMPI executes the HMPI EM3D program under the self-healing
// harness: the group is selected from the performance model as in RunHMPI,
// and when a member fails mid-run the survivors agree on the failure, the
// group is recreated over the surviving processors, and the algorithm
// restarts from the replicated initial field. The host (rank 0) must
// survive. Result.Time spans the whole resilient region, recoveries
// included.
func RunResilientHMPI(rt *hmpi.Runtime, pr *Problem, opts RunOptions) (FTResult, error) {
	var res FTResult
	model := Model()
	err := rt.Run(func(h *hmpi.Process) error {
		start := h.Proc().Now()
		return h.RunResilient(hmpi.FixedPlan(model, pr.ModelArgs()...), func(g *hmpi.Group) error {
			// Restart from the replicated initial field: every attempt
			// copies this member's body afresh, so a partial previous
			// attempt cannot leak.
			local := pr.ownCopy(g.Comm().Rank())
			// The first attempt is timed from the start of the resilient
			// region so that initial group creation counts as work, not
			// recovery: a failure-free run reports zero recovery.
			attemptStart := h.Proc().Now()
			if h.IsHost() {
				res.Attempts++
				if res.Attempts == 1 {
					attemptStart = start
				}
			}
			if err := RunParallel(g.Comm(), local, opts); err != nil {
				return err
			}
			g.Comm().Barrier() // measure until the last member finishes
			if h.IsHost() {
				res.Time = h.Proc().Now() - start
				res.WorkTime = h.Proc().Now() - attemptStart
				res.Selection = g.WorldRanks()
			}
			if opts.RealMath {
				if f := gatherField(g.Comm(), local); h.IsHost() {
					res.Field = f
				}
			}
			return nil
		})
	})
	res.Recovery = res.Time - res.WorkTime
	return res, err
}
