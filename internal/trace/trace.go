// Package trace provides the small output helpers the experiment harness
// uses: deterministic aligned text tables.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of string cells and renders them with aligned
// columns, in the style of the paper's tables.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends one row. Rows shorter than the header are padded; longer
// rows extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, wd := range widths {
		total += wd
	}
	b.WriteString(strings.Repeat("-", total+2*(cols-1)))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
