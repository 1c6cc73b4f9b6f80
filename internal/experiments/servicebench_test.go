package experiments

import "testing"

// TestServiceBenchGate runs the full service benchmark and asserts the
// PR's acceptance gates: every daemon-run makespan bit-identical to the
// serial uncached reference, a >50% cache hit rate on repeated specs
// (the whole-solve memo's rate — the fraction of selection searches a
// repeat job skipped outright), and a >= 1.5x warm-vs-cold speedup for
// a returning tenant. The speedup sides are minima over repeated
// sequential rounds, so the ratio is about as noise-proof as a
// wall-clock measurement gets; the identity and hit-rate gates are
// exact.
func TestServiceBenchGate(t *testing.T) {
	bench, err := ServiceBenchReport()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("jobs=%d throughput=%.0f jobs/sec warm=%.2fx evals cold=%v warm=%v solve-hit=%.0f%% value-hit=%.0f%%",
		bench.Jobs, bench.JobsPerSec, bench.WarmSpeedup, bench.ColdEvals, bench.WarmEvals,
		100*bench.SolveHitRate, 100*bench.CacheHitRate)
	if !bench.BitIdentical {
		t.Error("daemon makespans diverged from the serial uncached reference")
	}
	if bench.Jobs < 50 {
		t.Errorf("mix ran %d jobs, want >= 50", bench.Jobs)
	}
	if bench.JobsPerSec <= 0 {
		t.Errorf("non-positive throughput %.2f jobs/sec", bench.JobsPerSec)
	}
	if bench.SolveHitRate <= 0.5 {
		t.Errorf("solve hit rate %.2f on repeated specs, want > 0.5", bench.SolveHitRate)
	}
	if bench.CacheHitRate <= 0.5 {
		t.Errorf("value-layer hit rate %.2f, want > 0.5", bench.CacheHitRate)
	}
	if bench.WarmSpeedup < 1.5 {
		t.Errorf("warm-vs-cold speedup %.2fx below the 1.5x gate", bench.WarmSpeedup)
	}
	// The exact companion of the wall-clock gate: every warm round runs
	// at most 1/1.5 of its cold round's objective evaluations.
	if len(bench.ColdEvals) != bench.SpeedupRounds || len(bench.WarmEvals) != bench.SpeedupRounds {
		t.Fatalf("evaluations recorded for %d cold and %d warm rounds, want %d each",
			len(bench.ColdEvals), len(bench.WarmEvals), bench.SpeedupRounds)
	}
	for i, cold := range bench.ColdEvals {
		if warm := bench.WarmEvals[i]; cold <= 0 || 3*warm > 2*cold {
			t.Errorf("round %d: warm ran %d objective evaluations, cold %d; want warm <= cold/1.5", i, warm, cold)
		}
	}
}
