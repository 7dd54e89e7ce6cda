// Package report renders experiment results as aligned plain-text tables and
// series — the textual equivalents of the paper's tables and figures. Every
// experiment driver returns a Table; cmd/experiments and the benchmark
// harness print them through this package.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes hold free-form caveats printed under the table (e.g. paper
	// reference values).
	Notes []string
}

// AddRow appends a row, converting each value with %v (floats get %.4g).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = format(c)
	}
	t.Rows = append(t.Rows, row)
}

func format(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.4g", x)
	case float32:
		return fmt.Sprintf("%.4g", x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Render writes the table to w with aligned columns.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
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
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := len(c)
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = pad(c, width)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
