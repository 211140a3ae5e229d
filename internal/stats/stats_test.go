package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Table 9. Test", "mode", "value", "ratio")
	tbl.Row("strict", 3.14159, "x")
	tbl.Row("none", 10, "y")
	out := tbl.String()

	if !strings.Contains(out, "Table 9. Test") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "3.14") {
		t.Error("float not formatted to 2 decimals")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: all data lines the same width.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows unaligned:\n%s", out)
	}
	// First column is left aligned: "strict" starts at 0.
	if !strings.HasPrefix(lines[3], "strict") {
		t.Errorf("first column not left-aligned: %q", lines[3])
	}
}

func TestTableAlignLeft(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AlignLeft(1)
	tbl.Row("x", "yy")
	tbl.RowStrings([]string{"longer", "z"})
	out := tbl.String()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "yy") && !strings.Contains(line, "yy") {
			t.Error("unexpected")
		}
	}
	if !strings.Contains(out, "longer  z") {
		t.Errorf("left-aligned column broken:\n%s", out)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(7.56, 1.0) != "7.56" {
		t.Error("Ratio format")
	}
	if Ratio(1, 0) != "inf" {
		t.Error("Ratio by zero")
	}
}
