package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/vclock"
)

// ganttGlyph is the cell character of each charted kind; ganttRank orders
// them when activities overlap in one cell (compute > send > recv > idle).
var (
	ganttGlyph = map[Kind]byte{KindCompute: 'c', KindSend: 's', KindRecv: 'r'}
	ganttRank  = map[byte]int{'c': 3, 's': 2, 'r': 1, '.': 0}
)

// Gantt renders the point activity of the run as a text timeline: one row
// per rank, width columns across the makespan; c = computing, s =
// sending, r = receiving (waiting included), . = idle. Only compute, send
// and recv events are drawn, and the axis ends at the last of them:
// collective, region and lifecycle events wrap or mark activity already
// charted, so they neither paint cells nor stretch the axis.
func (d *Data) Gantt(w io.Writer, width int) error {
	var makespan vclock.Time
	d.EachEvent(func(_ int, e Event) bool {
		if ganttGlyph[e.Kind] != 0 && e.End > makespan {
			makespan = e.End
		}
		return true
	})
	if makespan == 0 || width <= 0 {
		_, err := fmt.Fprintln(w, "(no activity)")
		return err
	}
	rows := make([][]byte, d.Meta.NRanks)
	for r := range rows {
		rows[r] = []byte(strings.Repeat(".", width))
	}
	d.EachEvent(func(rank int, e Event) bool {
		g := ganttGlyph[e.Kind]
		if g == 0 || rank >= len(rows) {
			return true
		}
		lo := int(float64(e.Start) / float64(makespan) * float64(width))
		hi := int(float64(e.End) / float64(makespan) * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for i := lo; i < hi; i++ {
			if ganttRank[g] > ganttRank[rows[rank][i]] {
				rows[rank][i] = g
			}
		}
		return true
	})
	if _, err := fmt.Fprintf(w, "virtual time 0 .. %.4gs  (c=compute s=send r=recv/wait .=idle)\n", float64(makespan)); err != nil {
		return err
	}
	for r, row := range rows {
		if _, err := fmt.Fprintf(w, "rank %2d |%s|\n", r, row); err != nil {
			return err
		}
	}
	return nil
}
