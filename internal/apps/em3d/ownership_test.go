package em3d

import (
	"math"
	"testing"

	"repro/internal/hmpi"
	"repro/internal/hnoc"
)

// deepFields copies every body's E and H arrays.
func deepFields(pr *Problem) (e, h [][]float64) {
	for _, b := range pr.Bodies {
		e = append(e, append([]float64(nil), b.E...))
		h = append(h, append([]float64(nil), b.H...))
	}
	return e, h
}

// sameBits reports whether two field sets are identical bit for bit.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for n := range a[i] {
			if math.Float64bits(a[i][n]) != math.Float64bits(b[i][n]) {
				return false
			}
		}
	}
	return true
}

// TestDriversLeaveInputUntouched pins the ownership rule: every rank
// writes only its own copy of its own body, so after any driver, in
// either schedule, the caller's Problem still holds the initial field,
// and the gathered result equals the serial reference bit for bit.
func TestDriversLeaveInputUntouched(t *testing.T) {
	pr := smallProblem(t, 6, 900)
	const iters = 4
	want := pr.Clone().SerialRun(iters)
	e0, h0 := deepFields(pr)

	drivers := map[string]func(*hmpi.Runtime, *Problem, RunOptions) (Field, error){
		"HMPI": func(rt *hmpi.Runtime, pr *Problem, o RunOptions) (Field, error) {
			r, err := RunHMPI(rt, pr, o)
			return r.Field, err
		},
		"MPI": func(rt *hmpi.Runtime, pr *Problem, o RunOptions) (Field, error) {
			r, err := RunMPI(rt, pr, o)
			return r.Field, err
		},
		"Resilient": func(rt *hmpi.Runtime, pr *Problem, o RunOptions) (Field, error) {
			r, err := RunResilientHMPI(rt, pr, o)
			return r.Field, err
		},
	}
	for name, run := range drivers {
		for _, overlap := range []bool{false, true} {
			sched := "blocking"
			if overlap {
				sched = "overlap"
			}
			t.Run(name+"/"+sched, func(t *testing.T) {
				rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
				if err != nil {
					t.Fatal(err)
				}
				field, err := run(rt, pr, RunOptions{Iters: iters, RealMath: true, Overlap: overlap})
				if err != nil {
					t.Fatal(err)
				}
				if e, h := deepFields(pr); !sameBits(e, e0) || !sameBits(h, h0) {
					t.Fatal("the run wrote into the caller's Problem")
				}
				if !sameBits(field, want) {
					t.Fatal("gathered field differs from Clone().SerialRun")
				}
			})
		}
	}
}
