// Package stats provides the presentation helpers the experiment harness
// and the fault campaign use: fixed-width ASCII tables shaped like the
// paper's, an insertion-ordered counter set that renders as one, and the
// paper's normalized ratio cells.
package stats

import (
	"fmt"
	"strings"
)

// Table is a simple fixed-width ASCII table builder.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	aligned []bool // per column: right-align
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	t := &Table{Title: title, header: headers, aligned: make([]bool, len(headers))}
	for i := range t.aligned {
		t.aligned[i] = i > 0 // first column left, rest right by default
	}
	return t
}

// AlignLeft makes column i left-aligned.
func (t *Table) AlignLeft(i int) *Table {
	if i < len(t.aligned) {
		t.aligned[i] = false
	}
	return t
}

// Row appends a row; cells are formatted with %v, floats with %.2f.
func (t *Table) Row(cells ...interface{}) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// RowStrings appends a pre-formatted row.
func (t *Table) RowStrings(cells []string) *Table {
	t.rows = append(t.rows, cells)
	return t
}

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.header)
	widths := make([]int, ncol)
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i := 0; i < ncol && i < len(r); i++ {
			if len(r[i]) > widths[i] {
				widths[i] = len(r[i])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if t.aligned[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
				b.WriteString(cell)
			} else {
				b.WriteString(cell)
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(ncol-1)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Counters is an insertion-ordered named-counter set: iteration follows the
// order in which names were first added, so reports built from it are
// deterministic (unlike ranging over a map).
type Counters struct {
	names  []string
	values map[string]uint64
}

// Add increments name by n, registering it on first use.
func (c *Counters) Add(name string, n uint64) {
	if c.values == nil {
		c.values = make(map[string]uint64)
	}
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] += n
}

// Table renders the counters as a two-column table.
func (c *Counters) Table(title string) *Table {
	t := NewTable(title, "counter", "value")
	for _, n := range c.names {
		t.Row(n, c.values[n])
	}
	return t
}

// Ratio formats a/b as the paper's normalized "x divided by y" cells.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", a/b)
}
