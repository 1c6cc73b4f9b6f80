package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyondP90 is the fewest samples a run must have above its p90: a
// percentile resting on fewer is noise.
const minBeyondP90 = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and how many samples lie strictly beyond its rank. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// median is the 50th percentile (nearest rank).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// cpuTime is the process's user+system CPU time so far, every goroutine
// and the garbage collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSample is a reading of the Go runtime's cumulative GC counters.
type gcSample struct {
	cycles, allocBytes, allocObjects uint64
	gcCPU, totalCPU                  float64
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcSample{cycles: u(0), allocBytes: u(1), allocObjects: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// metric is one reported figure with its unit and the number of samples
// behind it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

func (m metric) String() string {
	s := fmt.Sprintf("%-28s %14.6g %-6s (n=%d", m.name, m.value, m.unit, m.samples)
	if m.note != "" {
		s += ", " + m.note
	}
	return s + ")"
}
