package trace

import (
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tbl := NewTable("Title", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "22222")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("%d lines, want 5:\n%s", len(lines), out)
	}
	if lines[2][0] != '-' {
		t.Fatalf("missing separator:\n%s", out)
	}
	if !strings.Contains(lines[4], "b") || !strings.Contains(lines[4], "22222") {
		t.Fatalf("row content lost:\n%s", out)
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("only")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only") {
		t.Fatal("short row lost")
	}
}
