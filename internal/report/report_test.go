package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("alpha", 1)
	tbl.AddRow("beta", 2.5)
	tbl.AddRow("gammagamma", 0.333333333)
	out := tbl.String()

	for _, want := range []string{"== demo ==", "name", "alpha", "beta",
		"gammagamma", "0.3333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: every data line has the value starting at the same
	// offset as the header's second column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	headerIdx := strings.Index(lines[1], "value")
	if headerIdx < 0 {
		t.Fatalf("no value column")
	}
	if !strings.HasPrefix(lines[3][headerIdx:], "1") {
		t.Errorf("misaligned column:\n%s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	if got := format(1.23456789); got != "1.235" {
		t.Errorf("format(float) = %q", got)
	}
	if got := format(float32(2)); got != "2" {
		t.Errorf("format(float32) = %q", got)
	}
	if got := format("x"); got != "x" {
		t.Errorf("format(string) = %q", got)
	}
	if got := format(42); got != "42" {
		t.Errorf("format(int) = %q", got)
	}
}

func TestRenderWithoutTitle(t *testing.T) {
	tbl := &Table{Header: []string{"h"}}
	tbl.AddRow("v")
	if strings.Contains(tbl.String(), "==") {
		t.Errorf("untitled table rendered a title bar")
	}
}
