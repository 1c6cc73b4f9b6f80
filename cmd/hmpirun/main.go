// Command hmpirun executes one of the demonstration applications on a
// simulated heterogeneous network, under HMPI group selection or the
// plain-MPI baseline, and prints the simulated execution time and the
// selected group.
//
// Usage:
//
//	hmpirun -app em3d -nodes 400000 -iters 10
//	hmpirun -app em3d -mode mpi
//	hmpirun -app matmul -n 90 -r 9 -l 9
//	hmpirun -app matmul -mode both -cluster mynet.json
//	hmpirun -app em3d -chaos "2@0.5;4@1.2"
//	hmpirun -app matmul -chaos "rand:k=2,seed=42,tmax=1.0"
//	hmpirun -app em3d -chaos "link:2-5@0.3+0.4:drop=0.2" -degrade
//	hmpirun -app em3d -chaos "part:{0,1,2}|{3..8}@0.5+0.2"
//
// The job flags (application, workload dimensions, cluster, chaos) are
// defined in internal/jobspec and shared verbatim with the hmpid service,
// so a flag line that works here also describes a submittable job there.
// The cluster defaults to the paper's nine-workstation network; -cluster
// loads a JSON configuration (see hnoc.Cluster). -chaos injects faults
// from a deterministic schedule and runs the application under the
// self-healing harness (see the chaos and hmpi packages). The grammar,
// ';'-separated (t in seconds of virtual time, probabilities in [0,1]):
//
//	R@T                            kill rank R at time T
//	rand:k=K,seed=S,tmax=T         K random kills drawn from seed S
//	link:A-B@T[+D]:p=v[,p=v...]    fault the A-B link from T (for D, or
//	                               forever): drop=, dup=, delay=, jitter=
//	randlink:k=K,seed=S,...        K random link faults from a template
//	part:{..}|{..}@T+D             partition the two rank sets for D
//
// Link faults are injected at the frame layer with retransmission armed
// (seeded by -chaos-seed, bit-for-bit reproducible); -degrade
// additionally lets the runtime fold chronically lossy links into the
// cost model and reselect the group around them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/jobspec"
	trc "repro/internal/trace"
)

// chartShardCap bounds the per-rank event ring of a charted run. No run
// reaches it and rings grow only as events arrive, so the chart keeps the
// run's whole history and costs only the events it records.
const chartShardCap = 1 << 30

func main() {
	jf := jobspec.RegisterFlags(flag.CommandLine, jobspec.ModeBoth)
	trace := flag.Bool("trace", false, "print a per-process activity timeline after each run")
	ganttWidth := flag.Int("trace-width", 100, "timeline width in columns")
	traceFile := flag.String("tracefile", "", "record a structured event trace and write it to this file (binary; analyse with hmpitrace)")
	metricsFile := flag.String("metrics", "", "write a metrics-registry snapshot of the recorded run to this JSON file")
	flag.Parse()

	spec, err := jf.Spec()
	if err != nil {
		fatal(err)
	}
	modes := []string{spec.Mode}
	if jf.Mode() == jobspec.ModeBoth && spec.Chaos == "" {
		modes = []string{jobspec.ModeHMPI, jobspec.ModeMPI}
	}
	record := *traceFile != "" || *metricsFile != ""
	if record && len(modes) > 1 {
		fatal(errors.New("-tracefile/-metrics record a single run; pick -mode hmpi or -mode mpi"))
	}

	for _, mode := range modes {
		spec.Mode = mode
		rec, err := run(os.Stdout, spec, record, *trace, *ganttWidth)
		if err != nil {
			fatal(err)
		}
		saveObs(rec, *traceFile, *metricsFile)
	}
}

// run executes spec once and prints its outcome to w: the chaos schedule
// and kills as they fire, the result line and, when chart is set, the
// per-process timeline of width columns drawn from the run's recorder. A
// recorder is attached when the run is recorded or charted; run returns
// it, or nil.
func run(w io.Writer, spec jobspec.Spec, record, chart bool, width int) (*trc.Recorder, error) {
	var rec *trc.Recorder
	opts := jobspec.ExecOptions{
		OnRuntime: func(rt *hmpi.Runtime) {
			switch {
			case chart:
				rec = rt.EnableRecorder(spec.App, trc.Options{ShardCap: chartShardCap})
			case record:
				rec = rt.EnableRecorder(spec.App, trc.Options{})
			}
		},
		OnChaosKill: func(e chaos.Event) {
			fmt.Fprintf(w, "chaos: rank %d killed at t=%.6gs\n", e.Rank, float64(e.At))
		},
	}
	if spec.Chaos != "" {
		fmt.Fprintf(w, "chaos: schedule %q seed %d\n", spec.Chaos, spec.ChaosSeed)
	}
	res, err := jobspec.Execute(spec, opts)
	if err != nil {
		return nil, err
	}
	printResult(w, spec, res)
	if chart && rec != nil {
		fmt.Fprintf(w, "--- %s %s timeline ---\n", res.App, spec.Mode)
		if err := rec.Data().Gantt(w, width); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// printResult prints the one-line summary of a finished run, matching the
// historical hmpirun output formats.
func printResult(w io.Writer, spec jobspec.Spec, res *jobspec.Result) {
	switch {
	case spec.Chaos != "":
		fmt.Fprintf(w, "%s hmpi+chaos: time %.6gs work %.6gs recovery %.6gs attempts %d",
			res.App, float64(res.Time), float64(res.WorkTime), float64(res.Recovery), res.Attempts)
		if res.App == "matmul" {
			fmt.Fprintf(w, " l=%d", res.L)
		}
		fmt.Fprintf(w, " selection %v\n", res.Selection)
		if len(res.Degraded) > 0 {
			fmt.Fprintf(w, "chaos: degraded machine pairs %v (cost model updated, group reselected)\n", res.Degraded)
		}
	case spec.Mode == jobspec.ModeHMPI:
		fmt.Fprintf(w, "%s hmpi: time %.6gs predicted %.6gs", res.App, float64(res.Time), res.Predicted)
		if res.App == "matmul" {
			fmt.Fprintf(w, " l=%d", res.L)
		}
		if res.App == "jacobi" {
			fmt.Fprintf(w, " heights %v", res.Heights)
		}
		fmt.Fprintf(w, " selection %v\n", res.Selection)
	default:
		fmt.Fprintf(w, "%s mpi:  time %.6gs", res.App, float64(res.Time))
		if res.App == "jacobi" {
			fmt.Fprintf(w, " heights %v", res.Heights)
		} else {
			fmt.Fprintf(w, " selection %v", res.Selection)
		}
		fmt.Fprintln(w)
	}
}

// saveObs writes the recorded structured trace and metrics snapshot after
// a traced run completes.
func saveObs(rec *trc.Recorder, traceFile, metricsFile string) {
	if rec == nil {
		return
	}
	d := rec.Data()
	if traceFile != "" {
		if err := d.WriteFile(traceFile); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote %s (%d events, %d dropped)\n", traceFile, len(d.Events()), d.Meta.Dropped)
	}
	if metricsFile != "" {
		reg := trc.NewRegistry()
		reg.FillFromData(d)
		f, err := os.Create(metricsFile)
		if err != nil {
			fatal(err)
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote metrics %s\n", metricsFile)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmpirun: %v\n", err)
	os.Exit(1)
}
