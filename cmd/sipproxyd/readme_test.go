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

// verdictReasons are the reasons EXPERIMENTS.md "Knob verdicts" accepts for
// keeping a flag.
var verdictReasons = map[string]bool{"workload": true, "row": true, "deployment": true, "RFC 3261": true}

var deletedVerdictRe = regexp.MustCompile(`^deleted \(PR \d+\)$`)

// TestKnobVerdictsCoverRegisteredFlags holds the flag set to the published
// verdict table: every flag main.go registers has exactly one "kept" row
// with a reason and its evidence, every "kept" row names a registered flag,
// and a "deleted" row names its PR and no flag that is still registered.
func TestKnobVerdictsCoverRegisteredFlags(t *testing.T) {
	flags := registeredFlags(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Knob verdicts\n")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Knob verdicts" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	kept := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		m := rowFlagRe.FindStringSubmatch(cells[0])
		if len(cells) != 4 || m == nil || cells[0] != "`-"+m[1]+"`" {
			t.Errorf("malformed verdict row %q", line)
			continue
		}
		name, verdict, reason, evidence := m[1], cells[1], cells[2], cells[3]
		switch {
		case verdict == "kept":
			kept[name]++
			if !flags[name] {
				t.Errorf("-%s is kept in the verdict table, but sipproxyd does not register it", name)
			}
			if !verdictReasons[reason] || evidence == "" {
				t.Errorf("-%s is kept for %q with evidence %q; want one of workload, row, deployment, RFC 3261 and the evidence", name, reason, evidence)
			}
		case deletedVerdictRe.MatchString(verdict):
			if flags[name] {
				t.Errorf("-%s is deleted in the verdict table, but sipproxyd still registers it", name)
			}
		default:
			t.Errorf("-%s has verdict %q; want kept or deleted (PR n)", name, verdict)
		}
	}
	for name := range flags {
		if kept[name] != 1 {
			t.Errorf("-%s has %d kept rows in EXPERIMENTS.md \"Knob verdicts\", want 1", name, kept[name])
		}
	}
}
