package trace

import (
	"runtime"
	"testing"

	"repro/internal/vclock"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(1, Options{ShardCap: 4})
	for i := 0; i < 10; i++ {
		r.Emit(0, Event{Rank: 0, Kind: KindCompute, Peer: -1, Start: vclock.Time(i), End: vclock.Time(i) + 1})
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.RankEvents(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest retained first: events 6..9.
	for i, e := range evs {
		if want := vclock.Time(6 + i); e.Start != want {
			t.Errorf("event %d start = %v, want %v", i, e.Start, want)
		}
	}
	if d := r.Data(); d.Meta.Dropped != 6 {
		t.Fatalf("Data dropped = %d, want 6", d.Meta.Dropped)
	}
}

func TestRecorderNoWrap(t *testing.T) {
	r := NewRecorder(2, Options{ShardCap: 8})
	r.Emit(1, Event{Rank: 1, Kind: KindSend, Peer: 0, Start: 1, End: 2})
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	if evs := r.RankEvents(0); len(evs) != 0 {
		t.Fatalf("rank 0 has %d events, want 0", len(evs))
	}
	evs := r.RankEvents(1)
	if len(evs) != 1 || evs[0].Kind != KindSend {
		t.Fatalf("rank 1 events = %+v", evs)
	}
}

// TestNewRecorderAllocatesNoRing: rings grow as events arrive, so a
// recorder costs almost nothing until it records, whatever its cap.
func TestNewRecorderAllocatesNoRing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(9, Options{ShardCap: 1 << 16})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewRecorder(9, 1<<16) allocated %d bytes, want < 64 KiB", got)
	}
}

// TestRecorderDroppedConcurrent reads Dropped from another goroutine
// while a rank emits past its cap (run under -race).
func TestRecorderDroppedConcurrent(t *testing.T) {
	const cap = 64
	r := NewRecorder(2, Options{ShardCap: cap})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4*cap; i++ {
			r.Emit(0, Event{Rank: 0, Kind: KindCompute, Peer: -1, Start: vclock.Time(i), End: vclock.Time(i) + 1})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if d := r.Dropped(); d < 0 || d > 3*cap {
			t.Fatalf("Dropped = %d mid-run, want within [0, %d]", d, 3*cap)
		}
	}
	if got := r.Dropped(); got != 3*cap {
		t.Fatalf("Dropped = %d, want %d", got, 3*cap)
	}
	if evs := r.RankEvents(0); len(evs) != cap || evs[0].Start != 3*cap {
		t.Fatalf("retained %d events starting at %v, want %d from %d", len(evs), evs[0].Start, cap, 3*cap)
	}
}

func TestRegionsNestAndMatchByName(t *testing.T) {
	r := NewRecorder(1, Options{})
	r.RegionBegin(0, "outer", 0)
	r.RegionBegin(0, "inner", 1)
	r.RegionEnd(0, "inner", 2)
	r.RegionEnd(0, "outer", 3)
	evs := r.RankEvents(0)
	if len(evs) != 2 {
		t.Fatalf("got %d region events, want 2", len(evs))
	}
	// Ends emit in closing order: inner first.
	if evs[0].Name != "inner" || evs[0].Start != 1 || evs[0].End != 2 {
		t.Errorf("inner region = %+v", evs[0])
	}
	if evs[1].Name != "outer" || evs[1].Start != 0 || evs[1].End != 3 {
		t.Errorf("outer region = %+v", evs[1])
	}
	if d := r.Data(); d.Meta.Unclosed != 0 {
		t.Fatalf("unclosed = %d, want 0", d.Meta.Unclosed)
	}
}

func TestRegionEndWithoutBeginIgnored(t *testing.T) {
	r := NewRecorder(1, Options{})
	r.RegionEnd(0, "ghost", 1)
	if evs := r.RankEvents(0); len(evs) != 0 {
		t.Fatalf("bad end emitted %d events", len(evs))
	}
	// An unmatched begin is surfaced through the snapshot metadata.
	r.RegionBegin(0, "open", 2)
	if d := r.Data(); d.Meta.Unclosed != 1 {
		t.Fatalf("unclosed = %d, want 1", d.Meta.Unclosed)
	}
}

func TestPredictRoundTrip(t *testing.T) {
	r := NewRecorder(1, Options{})
	r.Predict(0, "phase", 0.125, 3)
	evs := r.RankEvents(0)
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	e := evs[0]
	if e.Kind != KindPredict || e.Name != "phase" || e.Start != 3 || e.End != 3 {
		t.Fatalf("predict event = %+v", e)
	}
	if got := BitsFloat(e.A0); got != 0.125 {
		t.Fatalf("predicted = %v, want 0.125", got)
	}
}

func TestFloatBitsRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.1, 1e-300, 1e300, -3.75} {
		if got := BitsFloat(FloatBits(f)); got != f {
			t.Errorf("round trip of %v = %v", f, got)
		}
	}
}

func TestDataEventsMergeOrder(t *testing.T) {
	r := NewRecorder(3, Options{})
	// Same start on ranks 2 and 0: rank is the tie-break.
	r.Emit(2, Event{Rank: 2, Kind: KindCompute, Peer: -1, Start: 1, End: 2})
	r.Emit(0, Event{Rank: 0, Kind: KindCompute, Peer: -1, Start: 1, End: 3})
	r.Emit(1, Event{Rank: 1, Kind: KindCompute, Peer: -1, Start: 0, End: 1})
	evs := r.Data().Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Rank != 1 || evs[1].Rank != 0 || evs[2].Rank != 2 {
		t.Fatalf("merge order ranks = %d,%d,%d, want 1,0,2", evs[0].Rank, evs[1].Rank, evs[2].Rank)
	}
	if got := r.Data().Makespan(); got != 3 {
		t.Fatalf("makespan = %v, want 3", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindCompute; k <= KindKill; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("out-of-range kinds must stringify as unknown")
	}
}
