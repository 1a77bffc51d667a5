package surface

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// exampleFile holds the Example functions whose bodies README.md quotes.
const exampleFile = "../serve/example_test.go"

// TestReadmeExamples fails when a Go block of README.md is not the body of
// an Example function in exampleFile, read one tab less indented and with
// each further tab as four spaces. go test compiles those bodies and checks
// their output, so the README's Go cannot rot.
func TestReadmeExamples(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(exampleFile)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, exampleFile, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") {
			body := src[fset.Position(fd.Body.Lbrace).Offset+1 : fset.Position(fd.Body.Rbrace).Offset]
			bodies[readmeIndent(string(body))] = true
		}
	}

	blocks := 0
	var block []string
	inBlock := false
	for n, line := range strings.Split(string(readme), "\n") {
		switch {
		case line == "```go":
			inBlock, block = true, nil
			blocks++
		case inBlock && line == "```":
			inBlock = false
			if !bodies[strings.Join(block, "\n")] {
				t.Errorf("README.md:%d: this Go block is the body of no Example in %s (one tab less, further tabs as four spaces); make the two agree", n+1, exampleFile)
			}
		case inBlock:
			block = append(block, line)
		}
	}
	if blocks == 0 {
		t.Fatal("README.md has no Go block")
	}
}

// readmeIndent renders a function body the way README.md shows it: without
// the brace lines, one tab less indented, further tabs as four spaces.
func readmeIndent(body string) string {
	lines := strings.Split(strings.Trim(body, "\n"), "\n")
	for i, l := range lines {
		l = strings.TrimPrefix(l, "\t")
		trimmed := strings.TrimLeft(l, "\t")
		lines[i] = strings.Repeat("    ", len(l)-len(trimmed)) + trimmed
	}
	return strings.Join(lines, "\n")
}
