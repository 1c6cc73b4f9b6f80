package main

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/jobspec"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{20, 1, 4}, {50, 3, 2}, {90, 5, 0}, {100, 5, 0}, {1, 1, 4},
	}
	for _, c := range cases {
		v, b := percentile(xs, c.p)
		if v != c.want || b != c.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, b, c.want, c.beyond)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	// 100 samples leave exactly minBeyondP90 beyond p90; 99 leave fewer.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if v, b := percentile(hundred, 90); v != 90 || b != minBeyondP90 {
		t.Errorf("p90 of 1..100 = %v (%d beyond), want 90 (%d beyond)", v, b, minBeyondP90)
	}
	if _, b := percentile(hundred[:99], 90); b >= minBeyondP90 {
		t.Errorf("99 samples leave %d beyond p90, want fewer than %d", b, minBeyondP90)
	}
	if v := median([]float64{0.3, 0.1, 0.2}); v != 0.2 {
		t.Errorf("median = %v, want 0.2", v)
	}
}

// specLists returns each workload's seeded spec list (hmpid-mix: the first
// 300 submissions).
func specLists(seed int64) map[string][]string {
	keys := func(ss []jobspec.Spec) []string {
		var out []string
		for _, s := range ss {
			out = append(out, specKey(s))
		}
		return out
	}
	src := newMixSource(seed)
	var mix []jobspec.Spec
	for i := 0; i < 300; i++ {
		s, _ := src.at(i)
		mix = append(mix, s)
	}
	return map[string][]string{
		wPaper9:      keys(paper9Specs(seed)),
		wScaleSelect: keys(scaleSelectSpecs(seed)),
		wHmpidMix:    keys(mix),
	}
}

func TestSeedsMakeTheSpecList(t *testing.T) {
	a, b, other := specLists(7), specLists(7), specLists(8)
	for _, w := range workloadNames {
		if !slices.Equal(a[w], b[w]) {
			t.Errorf("%s: seed 7 gave two different spec lists", w)
		}
		if slices.Equal(a[w], other[w]) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec list", w)
		}
	}
}

func TestSeedsMakeTheSimulatedFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's spec list twice")
	}
	lists := map[string]func() []jobspec.Spec{
		wPaper9:      func() []jobspec.Spec { return paper9Specs(7) },
		wScaleSelect: func() []jobspec.Spec { return scaleSelectSpecs(7) },
		wHmpidMix:    func() []jobspec.Spec { return mixReferenceSpecs(7, mixRefSpecs) },
	}
	for _, w := range workloadNames {
		first, err := simulate(lists[w](), map[string]*jobspec.Result{})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		second, err := simulate(lists[w](), map[string]*jobspec.Result{})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if first != second {
			t.Errorf("%s: seed 7 gave %+v, then %+v", w, first, second)
		}
	}
}

func TestMixRepeatsAboutHalf(t *testing.T) {
	// Early and late stretches of a long run repeat alike.
	src := newMixSource(3)
	const n = 2000
	for lo := 0; lo < 2*n; lo += n {
		repeats := 0
		for i := lo; i < lo+n; i++ {
			if _, rep := src.at(i); rep {
				repeats++
			}
		}
		if share := float64(repeats) / n; share < 0.45 || share > 0.6 {
			t.Errorf("submissions %d..%d: repeat share %.3f, want about %.1f", lo, lo+n, share, mixRepeatShare)
		}
	}
}

// TestWatchdogCountsHang pins a known defect and the watchdog that
// contains it: em3d with P=9 on FatNode3x8's three machines never
// returns from jobspec.Execute (the host's Timeof fails with "3 processes
// available for 9 abstract processors" while ranks 1-2 block in
// receiveGroup). The closed loop must count it as timed out and move on.
// The hung ranks stay blocked until the test binary exits.
func TestWatchdogCountsHang(t *testing.T) {
	fat, _ := hnoc.FatNode3x8()
	hang := jobspec.Spec{App: "em3d", Mode: jobspec.ModeHMPI, Cluster: fat, Nodes: 9000, P: 9, Iters: 1}
	ok := jobspec.Spec{App: "jacobi", Mode: jobspec.ModeHMPI, Grid: 60, P: 4, Iters: 1}
	ls := closedLoop(1, 50*time.Millisecond, 0, func(i int) error {
		s := ok
		if i == 0 {
			s = hang
		}
		_, err := execute(s, jobspec.ExecOptions{}, time.Second)
		return err
	})
	if ls.timedOut != 1 || !errors.Is(ls.firstErr, errTimedOut) {
		t.Fatalf("timed out %d (first error %v), want the hanging job counted", ls.timedOut, ls.firstErr)
	}
	if ls.done != ls.attempted-1 || ls.failed != 0 {
		t.Fatalf("done %d of %d attempted, %d failed: the loop did not move on", ls.done, ls.attempted, ls.failed)
	}
}

func TestWatchdogReportsPanic(t *testing.T) {
	_, err := watchdog(time.Second, func() (int, error) { panic("boom") })
	if err == nil || errors.Is(err, errTimedOut) {
		t.Fatalf("panic surfaced as %v, want an error", err)
	}
}

func TestCycleLengths(t *testing.T) {
	for w, n := range map[string]int{wPaper9: len(paper9Specs(1)), wScaleSelect: len(scaleSelectSpecs(1))} {
		if n != cycleLen[w] {
			t.Errorf("%s list has %d specs, cycleLen says %d", w, n, cycleLen[w])
		}
		if n%10 != 5 {
			t.Errorf("%s list has %d specs; p50 and p90 need a length of 5 mod 10", w, n)
		}
	}
}

func TestLatenciesWholeCycles(t *testing.T) {
	ls := loopStats{attempted: 7}
	for i := 0; i < 7; i++ {
		ls.lat = append(ls.lat, sample{i, float64(i)})
	}
	if got := ls.latencies(3); !slices.Equal(got, []float64{0, 1, 2, 3, 4, 5}) {
		t.Errorf("whole cycles of 3 = %v", got)
	}
	if got := ls.latencies(0); len(got) != 7 {
		t.Errorf("no cycle kept %d of 7", len(got))
	}
}
