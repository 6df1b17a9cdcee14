package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// registeredFlags parses main.go and returns every flag name it registers
// through the flag package.
func registeredFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	return names
}

var (
	rowFlagRe     = regexp.MustCompile("`-([a-z0-9-]+)")
	exampleFlagRe = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
)

// TestReadmeNamesOnlyRegisteredFlags fails when README.md documents a
// sipproxyd flag main.go no longer registers: in the first cell of a flag
// table row (| `-name ...), or in a `go run ./cmd/sipproxyd` example.
func TestReadmeNamesOnlyRegisteredFlags(t *testing.T) {
	flags := registeredFlags(t)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(readme), "\n")
	checked := 0
	check := func(ln int, name string) {
		checked++
		if !flags[name] {
			t.Errorf("README.md:%d names -%s, which sipproxyd does not register", ln+1, name)
		}
	}
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "| `-") {
			cell := strings.SplitN(line, " | ", 2)[0]
			for _, m := range rowFlagRe.FindAllStringSubmatch(cell, -1) {
				check(i, m[1])
			}
			continue
		}
		if !strings.HasPrefix(line, "go run ./cmd/sipproxyd") {
			continue
		}
		for start := i; ; i++ {
			for _, m := range exampleFlagRe.FindAllStringSubmatch(lines[i], -1) {
				check(start, m[1])
			}
			if !strings.HasSuffix(lines[i], `\`) || i+1 == len(lines) {
				break
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d flag mentions found in README.md; the table format changed?", checked)
	}
}
