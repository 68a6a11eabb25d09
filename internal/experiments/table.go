package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment artifact: a titled, aligned text table
// mirroring the paper's layout.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("* ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as RFC-4180 comma-separated values (header row
// first, notes omitted), ready for external plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// pct formats a fraction as a percentage with one decimal, like the
// paper's tables.
func pct(v float64) string { return fmt.Sprintf("%.1f", v*100) }

// pct3 formats a fraction as a percentage with three decimals (reduction
// rates in the paper are reported as e.g. 99.989).
func pct3(v float64) string { return fmt.Sprintf("%.3f", v*100) }
