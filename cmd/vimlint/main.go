// Command vimlint runs the determinism & passivity lint suite
// (internal/lint) over this module: walltime, seededrand, maporder,
// psunits and passiveobserver — the static half of the contracts the
// golden-cell and scenario-replay harnesses prove differentially at run
// time. Findings are suppressed only by an in-source
// //lint:allow <analyzer> <reason> directive.
//
// Usage:
//
//	go run ./cmd/vimlint            # lint ./... (test files included)
//	go run ./cmd/vimlint -tests=false ./internal/...
//	go run ./cmd/vimlint -list      # one line per analyzer: name + contract
//	go run ./cmd/vimlint -json      # diagnostics as JSON, grouped by package and analyzer
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vimlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print each analyzer's name and contract, then exit")
	tests := fs.Bool("tests", true, "also lint _test.go files")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON, grouped by package and analyzer")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprint(stdout, listText())
		return 0
	}
	return standalone(fs.Args(), *tests, *jsonOut, stdout, stderr)
}

// listText renders the -list table: one "name<tab>contract" line per
// analyzer, in suite order.
func listText() string {
	var b strings.Builder
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(&b, "%-16s %s\n", a.Name, a.Contract())
	}
	return b.String()
}

// moduleRoot finds the enclosing module directory so package patterns
// resolve no matter where the binary is invoked from.
func moduleRoot() (string, error) {
	if _, err := os.Stat("go.mod"); err == nil {
		return ".", nil
	}
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

// standalone lints the packages matching the given patterns (default
// ./...) through the module loader.
func standalone(patterns []string, tests, jsonOut bool, stdout, stderr io.Writer) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "vimlint: %v\n", err)
		return 2
	}
	pkgs, err := load.New(root).Packages(tests, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "vimlint: %v\n", err)
		return 2
	}
	var all []lint.Diagnostic
	byPkg := map[string]map[string][]jsonDiag{}
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg)
		if err != nil {
			fmt.Fprintf(stderr, "vimlint: %v\n", err)
			return 2
		}
		all = append(all, diags...)
		if jsonOut && len(diags) > 0 {
			byPkg[pkg.Path] = groupDiags(diags)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		enc.Encode(byPkg)
	} else {
		for _, d := range all {
			fmt.Fprintln(stderr, d)
		}
	}
	if len(all) > 0 {
		if !jsonOut {
			fmt.Fprintf(stderr, "vimlint: %d finding(s)\n", len(all))
		}
		return 1
	}
	return 0
}

// jsonDiag is one diagnostic in the -json output.
type jsonDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

func groupDiags(diags []lint.Diagnostic) map[string][]jsonDiag {
	out := map[string][]jsonDiag{}
	for _, d := range diags {
		out[d.Analyzer] = append(out[d.Analyzer], jsonDiag{
			Posn:    fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column),
			Message: d.Message,
		})
	}
	return out
}
