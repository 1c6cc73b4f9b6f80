package trace

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// ganttData builds a snapshot of nranks ranks from events, filed under
// each event's Rank.
func ganttData(nranks int, evs ...Event) *Data {
	d := &Data{Meta: Meta{NRanks: nranks}, PerRank: make([][]Event, nranks)}
	for _, e := range evs {
		d.PerRank[e.Rank] = append(d.PerRank[e.Rank], e)
	}
	return d
}

// ganttRows renders d and returns the chart's cell rows, header dropped.
func ganttRows(t *testing.T, d *Data, width int) (string, []string) {
	t.Helper()
	var sb strings.Builder
	if err := d.Gantt(&sb, width); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	var rows []string
	for _, l := range lines[1:] {
		rows = append(rows, l[strings.Index(l, "|")+1:len(l)-1])
	}
	return out, rows
}

func span(rank int32, k Kind, start, end vclock.Time) Event {
	return Event{Rank: rank, Kind: k, Peer: -1, Start: start, End: end}
}

func TestTraceGantt(t *testing.T) {
	// Rank 0 computes for 2 s then sends for 1 s; rank 1 waits in a
	// receive until the message lands, then computes.
	d := ganttData(2,
		span(0, KindCompute, 0, 2),
		span(0, KindSend, 2, 3),
		span(1, KindRecv, 0, 3),
		span(1, KindCompute, 3, 4),
	)
	out, rows := ganttRows(t, d, 40)
	if !strings.HasPrefix(out, "virtual time 0 .. 4s  (c=compute s=send r=recv/wait .=idle)\n") {
		t.Fatalf("header:\n%s", out)
	}
	if !strings.Contains(out, "rank  0 |") || !strings.Contains(out, "rank  1 |") {
		t.Fatalf("gantt missing rows:\n%s", out)
	}
	want := []string{
		strings.Repeat("c", 20) + strings.Repeat("s", 10) + strings.Repeat(".", 10),
		strings.Repeat("r", 30) + strings.Repeat("c", 10),
	}
	for r := range want {
		if rows[r] != want[r] {
			t.Errorf("rank %d row = %q, want %q", r, rows[r], want[r])
		}
	}
}

func TestTraceGanttEmpty(t *testing.T) {
	for _, d := range []*Data{
		ganttData(1),
		// Only uncharted kinds: the makespan of the chart is still 0.
		ganttData(1, Event{Rank: 0, Kind: KindRegion, Peer: -1, Start: 0, End: 5}),
	} {
		var sb strings.Builder
		if err := d.Gantt(&sb, 10); err != nil {
			t.Fatal(err)
		}
		if sb.String() != "(no activity)\n" {
			t.Fatalf("empty gantt: %q", sb.String())
		}
	}
}

// TestTraceGanttAxisIgnoresWrappers: collective and region events that
// end after the last compute/send/recv neither stretch the axis nor paint
// cells.
func TestTraceGanttAxisIgnoresWrappers(t *testing.T) {
	d := ganttData(2,
		span(0, KindCompute, 0, 1),
		span(1, KindSend, 1, 2),
		span(0, KindColl, 0, 8),
		span(1, KindRegion, 0, 9),
	)
	out, rows := ganttRows(t, d, 10)
	if !strings.HasPrefix(out, "virtual time 0 .. 2s ") {
		t.Fatalf("axis stretched past the last point activity:\n%s", out)
	}
	if rows[0] != "ccccc....." || rows[1] != ".....sssss" {
		t.Fatalf("rows = %q", rows)
	}
}

// TestTraceGanttPriority: where kinds overlap in a cell, compute paints
// over send and send over recv, whatever the emission order.
func TestTraceGanttPriority(t *testing.T) {
	d := ganttData(1,
		span(0, KindRecv, 0, 10),
		span(0, KindCompute, 2, 4),
		span(0, KindSend, 3, 6),
		span(0, KindRecv, 4, 5),
	)
	_, rows := ganttRows(t, d, 10)
	if want := "rrccssrrrr"; rows[0] != want {
		t.Fatalf("row = %q, want %q", rows[0], want)
	}
}
