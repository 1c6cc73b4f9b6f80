package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jobspec"
)

// TestGanttGolden runs the three applications at their default sizes in
// both modes and compares hmpirun -trace's output, chart included, with
// testdata captured from the per-process activity tracer the recorder
// replaced. The default HMPI matmul run records more events on a rank
// than the recorder's default 16384-event ring retains, so its golden
// also checks that a charted run keeps its whole history.
func TestGanttGolden(t *testing.T) {
	for _, app := range []string{"em3d", "matmul", "jacobi"} {
		for _, mode := range []string{jobspec.ModeHMPI, jobspec.ModeMPI} {
			name := app + "_" + mode
			t.Run(name, func(t *testing.T) {
				fs := flag.NewFlagSet("hmpirun", flag.ContinueOnError)
				jf := jobspec.RegisterFlags(fs, jobspec.ModeBoth)
				if err := fs.Parse([]string{"-app", app, "-mode", mode}); err != nil {
					t.Fatal(err)
				}
				spec, err := jf.Spec()
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				rec, err := run(&out, spec, false, true, 100)
				if err != nil {
					t.Fatal(err)
				}
				if d := rec.Dropped(); d != 0 {
					t.Errorf("charted run dropped %d events", d)
				}
				if name == "matmul_hmpi" {
					most := 0
					for r := 0; r < rec.NumRanks(); r++ {
						most = max(most, len(rec.RankEvents(r)))
					}
					if most <= 1<<14 {
						t.Errorf("busiest rank recorded %d events; the golden no longer exercises a run past the default ring", most)
					}
				}
				want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("hmpirun -trace output differs from the golden\n got:\n%s\nwant:\n%s", out.Bytes(), want)
				}
			})
		}
	}
}

func TestCandidateBlockSizes(t *testing.T) {
	cases := []struct {
		m, n int
		want []int
	}{
		{3, 24, []int{3, 6, 12, 24}},
		{3, 20, []int{3, 6, 12, 20}},
		{2, 2, []int{2}},
		{3, 3, []int{3}},
	}
	for _, tc := range cases {
		got := jobspec.CandidateBlockSizes(tc.m, tc.n)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("CandidateBlockSizes(%d,%d) = %v, want %v", tc.m, tc.n, got, tc.want)
		}
		// Every candidate is feasible: m <= l <= n.
		for _, l := range got {
			if l < tc.m || l > tc.n {
				t.Errorf("candidate %d outside [%d,%d]", l, tc.m, tc.n)
			}
		}
	}
}
