// Package report renders experiment results as fixed-width text tables
// and JSON, following the layout of the paper's tables and figures so
// reproduction output can be compared side by side.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows of cells under a header.
type Table struct {
	Title   string
	Header  []string
	rows    [][]string
	widths  []int
	hasRows bool
}

// NewTable starts a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	t := &Table{Title: title, Header: header, widths: make([]int, len(header))}
	for i, h := range header {
		t.widths[i] = len(h)
	}
	return t
}

// AddRow appends a row; it panics on column-count mismatch.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("report: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	for i, c := range cells {
		if len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
	t.rows = append(t.rows, cells)
	t.hasRows = true
}

// Ratio formats a hit ratio the way the paper prints it (".47"), with '-'
// for NaN (operation absent).
func Ratio(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	s := fmt.Sprintf("%.2f", v)
	return strings.TrimPrefix(s, "0")
}

// Fixed formats a value with the given number of decimals, '-' for NaN.
func Fixed(v float64, decimals int) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.*f", decimals, v)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	total := len(t.widths) + 1
	for _, w := range t.widths {
		total += w + 2
	}
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	rule := strings.Repeat("-", total)
	b.WriteString(rule)
	b.WriteByte('\n')
	t.writeRow(&b, t.Header)
	b.WriteString(rule)
	b.WriteByte('\n')
	for _, r := range t.rows {
		t.writeRow(&b, r)
	}
	b.WriteString(rule)
	b.WriteByte('\n')
	return b.String()
}

func (t *Table) writeRow(b *strings.Builder, cells []string) {
	b.WriteByte('|')
	for i, c := range cells {
		pad := t.widths[i] - len(c)
		if i == 0 {
			// First column is left-aligned (application names).
			b.WriteByte(' ')
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad+1))
		} else {
			b.WriteString(strings.Repeat(" ", pad+1))
			b.WriteString(c)
			b.WriteByte(' ')
		}
		b.WriteByte('|')
	}
	b.WriteByte('\n')
}
