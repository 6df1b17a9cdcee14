package experiment

import (
	"fmt"
	"strings"
	"time"

	"gosip/internal/metrics"
)

// grid lays the report out as a header line plus one line per (row, load),
// dropping every column that does not apply to any cell.
func (r *Report) grid() [][]string {
	head := []string{"row", "clients", "ops/s", "vs ref"}
	for _, col := range r.Sweep.Cols {
		head = append(head, col.Name)
	}
	lines := [][]string{head}
	for i, row := range r.Sweep.Rows {
		for j, load := range r.Loads {
			c := &r.Cells[i][j]
			ref := r.Cell(row.Ref, load)
			line := []string{row.Name, fmt.Sprint(load), fmt.Sprintf("%.0f", c.Result.Throughput), "-"}
			if ref != nil && ref.Result.Throughput > 0 {
				line[3] = fmt.Sprintf("%.0f%% of %s", 100*c.Result.Throughput/ref.Result.Throughput, row.Ref)
			}
			for _, col := range r.Sweep.Cols {
				line = append(line, col.Value(c, ref))
			}
			lines = append(lines, line)
		}
	}
	var keep []int
	for k := range head {
		for _, line := range lines[1:] {
			if line[k] != "-" {
				keep = append(keep, k)
				break
			}
		}
	}
	for n, line := range lines {
		kept := make([]string, len(keep))
		for i, k := range keep {
			kept[i] = line[k]
		}
		lines[n] = kept
	}
	return lines
}

// notes renders the Start hook's per-cell text blocks.
func (r *Report) notes() string {
	var b strings.Builder
	for i, row := range r.Sweep.Rows {
		for j, load := range r.Loads {
			if n := r.Notes[i][j]; n != "" {
				fmt.Fprintf(&b, "\n%s @ %d clients:\n%s", row.Name, load, n)
			}
		}
	}
	return b.String()
}

// Table renders the report as aligned text: the row name left, every
// quantity right-aligned, then the per-cell notes.
func (r *Report) Table() string {
	lines := r.grid()
	width := make([]int, len(lines[0]))
	for _, line := range lines {
		for k, v := range line {
			width[k] = max(width[k], len([]rune(v)))
		}
	}
	var b strings.Builder
	b.WriteString(r.Sweep.Title + "\n")
	for _, line := range lines {
		for k, v := range line {
			pad := strings.Repeat(" ", width[k]-len([]rune(v)))
			if k == 0 {
				b.WriteString(v + pad)
			} else {
				b.WriteString("  " + pad + v)
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(r.notes())
	return b.String()
}

// Markdown renders the report as a GitHub table for EXPERIMENTS.md, notes
// in a code block under it.
func (r *Report) Markdown() string {
	lines := r.grid()
	var b strings.Builder
	for n, line := range lines {
		b.WriteString("| " + strings.Join(line, " | ") + " |\n")
		if n == 0 {
			b.WriteString(strings.Repeat("|---", len(line)) + "|\n")
		}
	}
	if notes := r.notes(); notes != "" {
		b.WriteString("\n```" + notes + "```\n")
	}
	return b.String()
}

// Chart renders paper-style grouped ASCII bars of ops/s: one group per
// load, one bar per row, scaled to the sweep's maximum. Empty when nothing
// ran.
func (r *Report) Chart() string {
	const width = 48
	top, label := 0.0, 0
	for i, cells := range r.Cells {
		label = max(label, len([]rune(r.Sweep.Rows[i].Name)))
		for _, c := range cells {
			top = max(top, c.Result.Throughput)
		}
	}
	if top <= 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(r.Sweep.Title + "\n")
	for j, load := range r.Loads {
		fmt.Fprintf(&b, "%d clients\n", load)
		for i, row := range r.Sweep.Rows {
			tp := r.Cells[i][j].Result.Throughput
			n := int(tp / top * width)
			if n < 1 && tp > 0 {
				n = 1
			}
			fmt.Fprintf(&b, "  %-*s %s %.0f\n", label, row.Name, strings.Repeat("█", n), tp)
		}
	}
	return b.String()
}

// timelineStages are the pipeline stages a run timeline considers; it
// drops the ones the architecture never exercised.
var timelineStages = []string{
	metrics.StageParse, metrics.StageProcess, metrics.StageSend,
	metrics.StageFDIPC, metrics.StageIdleScan,
}

// Timeline renders the cell's sampled run: ops/s and per-stage P99 per
// sampling interval, plus runtime health.
func (c *Cell) Timeline() string {
	return c.Series.Table(metrics.MetricMsgsProcessed, c.Series.ActiveStages(timelineStages))
}

// durations renders a p50/p99 pair, or "-" for an empty histogram.
func durations(h metrics.HistogramSnapshot) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%v/%v", h.P50().Round(time.Microsecond), h.P99().Round(time.Microsecond))
}
