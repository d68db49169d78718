// Package analysis is a deliberately small, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface: an Analyzer names a check
// and supplies a Run function; a Pass hands Run one type-checked package
// and collects Diagnostics. The repository cannot vendor x/tools (the
// build is hermetic — standard library only), so the vimlint suite is
// written against this shim instead; analyzers port to the upstream API
// by changing one import path. cmd/vimlint drives them over the module
// through internal/lint/load.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name is the identifier used on the
// command line and in //lint:allow directives; the first line of Doc is
// the one-line contract the check enforces (cmd/vimlint -list prints it).
type Analyzer struct {
	Name string
	Doc  string

	// Run applies the check to one package and reports findings through
	// pass.Report. The interface{} result mirrors upstream (inter-pass
	// facts); the vimlint analyzers never return one.
	Run func(*Pass) (interface{}, error)
}

// Contract returns the first line of Doc: the one-line statement of the
// invariant the analyzer guards.
func (a *Analyzer) Contract() string {
	for i := 0; i < len(a.Doc); i++ {
		if a.Doc[i] == '\n' {
			return a.Doc[:i]
		}
	}
	return a.Doc
}

// Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver wraps it (allow-directive
	// suppression, sorting); analyzers call Reportf for convenience.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
