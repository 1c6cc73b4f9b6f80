package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Each benchmark runs a
// representative configuration of the corresponding experiment and reports
// the simulated execution times as custom metrics (sim-hmpi-s / sim-mpi-s),
// so `go test -bench=.` both exercises the full pipeline and reports the
// reproduced result. Full sweeps: `go run ./cmd/hmpibench -fig all`.

import (
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/estimator"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/mapper"
	"repro/internal/mpi"
	"repro/internal/pmdl"
	"repro/internal/sched"
)

// em3dRun executes one EM3D HMPI-vs-MPI comparison point.
func em3dRun(b *testing.B, nodes, iters int) (hmpiT, mpiT float64) {
	b.Helper()
	pr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: nodes, Light: true})
	if err != nil {
		b.Fatal(err)
	}
	rtH, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		b.Fatal(err)
	}
	defer rtH.Finalize()
	hres, err := em3d.RunHMPI(rtH, pr, em3d.RunOptions{Iters: iters})
	if err != nil {
		b.Fatal(err)
	}
	rtM, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		b.Fatal(err)
	}
	defer rtM.Finalize()
	mres, err := em3d.RunMPI(rtM, pr, em3d.RunOptions{Iters: iters})
	if err != nil {
		b.Fatal(err)
	}
	return float64(hres.Time), float64(mres.Time)
}

// BenchmarkFig9aEM3D regenerates one point of Figure 9(a): EM3D execution
// time under HMPI and under plain MPI (400k nodes, 10 iterations).
func BenchmarkFig9aEM3D(b *testing.B) {
	var h, m float64
	for i := 0; i < b.N; i++ {
		h, m = em3dRun(b, 400_000, 10)
	}
	b.ReportMetric(h, "sim-hmpi-s")
	b.ReportMetric(m, "sim-mpi-s")
}

// BenchmarkFig9bSpeedup regenerates one point of Figure 9(b): the EM3D
// speedup of HMPI over MPI (paper: almost 1.5x).
func BenchmarkFig9bSpeedup(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		h, m := em3dRun(b, 400_000, 10)
		sp = m / h
	}
	b.ReportMetric(sp, "speedup-x")
}

// mmRun executes one MM HMPI-vs-MPI comparison point.
func mmRun(b *testing.B, r, n int, ls []int) (hmpiT, mpiT float64) {
	b.Helper()
	pr, err := matmul.Generate(matmul.Config{M: 3, R: r, N: n})
	if err != nil {
		b.Fatal(err)
	}
	rtH, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		b.Fatal(err)
	}
	defer rtH.Finalize()
	hres, err := matmul.RunHMPI(rtH, pr, ls, matmul.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rtM, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		b.Fatal(err)
	}
	defer rtM.Finalize()
	mres, err := matmul.RunMPI(rtM, pr, matmul.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return float64(hres.Time), float64(mres.Time)
}

// BenchmarkFig10BlockSize regenerates Figure 10's contrast between the
// worst (l = m: the distribution degenerates to homogeneous) and a good
// generalised block size at r = 8.
func BenchmarkFig10BlockSize(b *testing.B) {
	var worst, good float64
	for i := 0; i < b.N; i++ {
		worst, _ = mmRun(b, 8, 36, []int{3})
		good, _ = mmRun(b, 8, 36, []int{12})
	}
	b.ReportMetric(worst, "sim-l3-s")
	b.ReportMetric(good, "sim-l12-s")
}

// BenchmarkFig11aMM regenerates one point of Figure 11(a): MM execution
// time under HMPI and under plain MPI (r = l = 9, 810x810 elements).
func BenchmarkFig11aMM(b *testing.B) {
	var h, m float64
	for i := 0; i < b.N; i++ {
		h, m = mmRun(b, 9, 90, []int{9})
	}
	b.ReportMetric(h, "sim-hmpi-s")
	b.ReportMetric(m, "sim-mpi-s")
}

// BenchmarkFig11bSpeedup regenerates one point of Figure 11(b): the MM
// speedup of HMPI over MPI (paper: almost 3x).
func BenchmarkFig11bSpeedup(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		h, m := mmRun(b, 9, 90, []int{9})
		sp = m / h
	}
	b.ReportMetric(sp, "speedup-x")
}

// BenchmarkTableATimeof regenerates one row of Table A: HMPI_Timeof's
// prediction against the simulated run (EM3D, 200k nodes).
func BenchmarkTableATimeof(b *testing.B) {
	var pred, sim float64
	for i := 0; i < b.N; i++ {
		pr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: 200_000, Light: true})
		if err != nil {
			b.Fatal(err)
		}
		rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
		if err != nil {
			b.Fatal(err)
		}
		res, err := em3d.RunHMPI(rt, pr, em3d.RunOptions{Iters: 10})
		rt.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		pred, sim = res.Predicted, float64(res.Time)
	}
	b.ReportMetric(pred, "predicted-s")
	b.ReportMetric(sim, "simulated-s")
}

// em3dSelection builds a selection problem on the paper network for the
// mapper benchmarks.
func em3dSelection(b *testing.B) (*estimator.Estimator, mapper.Problem) {
	b.Helper()
	pr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: 400_000, BoundaryFrac: 0.3, Light: true})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := em3d.Model().Instantiate(pr.ModelArgs()...)
	if err != nil {
		b.Fatal(err)
	}
	cluster := hnoc.Paper9()
	unit := pr.KernelUnits(pr.K)
	speeds := make([]float64, cluster.Size())
	for i, m := range cluster.Machines {
		speeds[i] = m.Speed / unit
	}
	est, err := estimator.New(inst, cluster, speeds, mpi.OneProcessPerMachine(cluster))
	if err != nil {
		b.Fatal(err)
	}
	avail := make([]int, 9)
	for i := range avail {
		avail[i] = i
	}
	return est, mapper.Problem{
		P:            inst.NumProcs,
		Avail:        avail,
		Fixed:        map[int]int{inst.Parent: 0},
		Weights:      inst.CompVolume,
		SpeedOf:      func(r int) float64 { return cluster.Machines[r].Speed },
		Objective:    est.Session().Timeof,
		NewObjective: func() mapper.Objective { return est.Session().Timeof },
		LowerBound:   est.LowerBound,
		CanonicalKey: est.AppendCanonicalKey,
	}
}

// BenchmarkTableBMapperStrategies regenerates Table B: the cost of each
// group-selection strategy, now including the concurrent engine's
// pruned/cached/parallel exhaustive variants, multi-start local search,
// and the strategy portfolio. Each run reports the prediction, the
// objective evaluations spent, and the evaluation throughput.
func BenchmarkTableBMapperStrategies(b *testing.B) {
	for _, st := range []struct {
		name string
		opts mapper.Options
	}{
		{"Exhaustive", mapper.Options{Strategy: mapper.StrategyExhaustive}},
		{"ExhaustivePruned", mapper.Options{Strategy: mapper.StrategyExhaustive, Prune: true}},
		{"ExhaustiveSymmetry", mapper.Options{Strategy: mapper.StrategyExhaustive, Cache: true}},
		{"ExhaustivePrunedSym", mapper.Options{Strategy: mapper.StrategyExhaustive, Prune: true, Cache: true}},
		{"ExhaustiveParallel4", mapper.Options{Strategy: mapper.StrategyExhaustive, Parallelism: 4}},
		{"Greedy", mapper.Options{Strategy: mapper.StrategyGreedy}},
		{"GreedyLocal", mapper.Options{Strategy: mapper.StrategyGreedyLocal}},
		{"GreedyMultiStart8", mapper.Options{Strategy: mapper.StrategyGreedyLocal, Restarts: 8, Parallelism: 4}},
		{"RandomBest", mapper.Options{Strategy: mapper.StrategyRandomBest}},
		{"Portfolio", mapper.Options{Strategy: mapper.StrategyPortfolio, Parallelism: 4, Prune: true, Cache: true}},
	} {
		b.Run(st.name, func(b *testing.B) {
			_, pr := em3dSelection(b)
			opts := st.opts
			opts.ExhaustiveLimit = 1_000_000
			var t float64
			var stats mapper.SearchStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := mapper.Solve(pr, opts)
				if err != nil {
					b.Fatal(err)
				}
				t = a.Time
				stats = a.Stats
			}
			b.ReportMetric(t, "predicted-s")
			b.ReportMetric(float64(stats.Evaluations), "evals")
			if s := stats.WallTime.Seconds(); s > 0 {
				b.ReportMetric(float64(stats.Evaluations)/s, "evals/sec")
			}
		})
	}
}

// BenchmarkGroupCreateSearch contrasts the serial exhaustive selection
// behind HMPI_Group_create with the tuned engine (pruned, symmetry-cached,
// 4 workers): same answer, fewer evaluations, less wall time.
func BenchmarkGroupCreateSearch(b *testing.B) {
	_, pr := em3dSelection(b)
	serialOpts := mapper.Options{Strategy: mapper.StrategyExhaustive, ExhaustiveLimit: 1_000_000}
	tunedOpts := mapper.Options{Strategy: mapper.StrategyExhaustive, ExhaustiveLimit: 1_000_000,
		Prune: true, Cache: true, Parallelism: 4}
	var serial, tuned mapper.Assignment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		serial, err = mapper.Solve(pr, serialOpts)
		if err != nil {
			b.Fatal(err)
		}
		tuned, err = mapper.Solve(pr, tunedOpts)
		if err != nil {
			b.Fatal(err)
		}
		if tuned.Time != serial.Time {
			b.Fatalf("tuned engine predicts %v, serial %v", tuned.Time, serial.Time)
		}
	}
	b.ReportMetric(serial.Stats.WallTime.Seconds()/tuned.Stats.WallTime.Seconds(), "speedup-x")
	b.ReportMetric(float64(serial.Stats.Evaluations)/float64(tuned.Stats.Evaluations), "eval-reduction-x")
}

// BenchmarkAblationNICSerial measures the prediction with and without the
// sender-interface serialisation of the switched-network model.
func BenchmarkAblationNICSerial(b *testing.B) {
	est, pr := em3dSelection(b)
	a, err := mapper.Solve(pr, mapper.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var serial, ideal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial = est.TimeofWith(a.Ranks, true)
		ideal = est.TimeofWith(a.Ranks, false)
	}
	b.ReportMetric(serial, "serial-nic-s")
	b.ReportMetric(ideal, "ideal-net-s")
}

// BenchmarkAblationEstimator compares the DAG estimator against the naive
// sum-of-volumes estimator as the selection objective.
func BenchmarkAblationEstimator(b *testing.B) {
	est, pr := em3dSelection(b)
	var dagQ, naiveQ float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dagSel, err := mapper.Solve(pr, mapper.Options{Strategy: mapper.StrategyGreedyLocal})
		if err != nil {
			b.Fatal(err)
		}
		naivePr := pr
		naivePr.Objective = est.NaiveTimeof
		naiveSel, err := mapper.Solve(naivePr, mapper.Options{Strategy: mapper.StrategyGreedyLocal})
		if err != nil {
			b.Fatal(err)
		}
		dagQ = est.Timeof(dagSel.Ranks)
		naiveQ = est.Timeof(naiveSel.Ranks)
	}
	b.ReportMetric(dagQ, "dag-objective-s")
	b.ReportMetric(naiveQ, "naive-objective-s")
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkMPIPingPong measures the in-process message path.
func BenchmarkMPIPingPong(b *testing.B) {
	c := hnoc.Homogeneous(2, 100)
	w := mpi.NewWorld(c, mpi.OneProcessPerMachine(c))
	payload := make([]byte, 1024)
	b.ResetTimer()
	err := w.Run(func(p *mpi.Proc) error {
		comm := p.CommWorld()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				comm.Send(1, 0, payload)
				comm.Recv(1, 1)
			} else {
				comm.Recv(0, 0)
				comm.Send(0, 1, payload)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMPIBcast measures a 9-process broadcast per iteration.
func BenchmarkMPIBcast(b *testing.B) {
	c := hnoc.Paper9()
	w := mpi.NewWorld(c, mpi.OneProcessPerMachine(c))
	payload := make([]byte, 8192)
	b.ResetTimer()
	err := w.Run(func(p *mpi.Proc) error {
		comm := p.CommWorld()
		for i := 0; i < b.N; i++ {
			var data []byte
			if comm.Rank() == 0 {
				data = payload
			}
			comm.Bcast(0, data)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkModelParse measures compilation of the ParallelAxB model.
func BenchmarkModelParse(b *testing.B) {
	src := matmul.Model().Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmdl.ParseModel(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemeDAG measures scheme interpretation into a task graph for
// a realistic MM instance (n=90, l=9).
func BenchmarkSchemeDAG(b *testing.B) {
	pr, err := matmul.Generate(matmul.Config{M: 3, R: 9, N: 90})
	if err != nil {
		b.Fatal(err)
	}
	speeds := [][]float64{{46, 46, 46}, {46, 46, 46}, {176, 106, 9}}
	dist, err := matmul.NewHetero(speeds, 9, pr.N, pr.R)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := matmul.Model().Instantiate(dist.ModelArgs()...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.BuildDAG(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleDAG measures replaying the MM task graph against a
// candidate arrangement (the inner loop of group selection).
func BenchmarkScheduleDAG(b *testing.B) {
	pr, err := matmul.Generate(matmul.Config{M: 3, R: 9, N: 90})
	if err != nil {
		b.Fatal(err)
	}
	speeds := [][]float64{{46, 46, 46}, {46, 46, 46}, {176, 106, 9}}
	dist, err := matmul.NewHetero(speeds, 9, pr.N, pr.R)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := matmul.Model().Instantiate(dist.ModelArgs()...)
	if err != nil {
		b.Fatal(err)
	}
	dag, err := inst.BuildDAG()
	if err != nil {
		b.Fatal(err)
	}
	res := sched.Resources{
		Speed:        func(p int) float64 { return 100_000 },
		Link:         func(src, dst int) sched.Link { return sched.Link{Latency: 150e-6, Bandwidth: 11e6} },
		SerialiseNIC: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Makespan(dag, inst.NumProcs, res)
	}
}

// BenchmarkTableDJacobi regenerates one point of Table D: the third
// application (Jacobi relaxation), speed-proportional vs uniform strips.
func BenchmarkTableDJacobi(b *testing.B) {
	var h, m float64
	for i := 0; i < b.N; i++ {
		pr, err := jacobi.Generate(jacobi.Config{Rows: 1800, Cols: 1800, Iters: 10, P: 9})
		if err != nil {
			b.Fatal(err)
		}
		rtH, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
		if err != nil {
			b.Fatal(err)
		}
		hres, err := jacobi.RunHMPI(rtH, pr, false)
		rtH.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		rtM, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
		if err != nil {
			b.Fatal(err)
		}
		mres, err := jacobi.RunMPI(rtM, pr, false)
		rtM.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		h, m = float64(hres.Time), float64(mres.Time)
	}
	b.ReportMetric(h, "sim-hmpi-s")
	b.ReportMetric(m, "sim-uniform-s")
}

// BenchmarkTableCHeterogeneity regenerates one point of Table C: the EM3D
// speedup at the paper's own heterogeneity level (max/min ratio ~20).
func BenchmarkTableCHeterogeneity(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		h, m := em3dRun(b, 400_000, 10)
		sp = m / h
	}
	b.ReportMetric(sp, "speedup-x")
}
