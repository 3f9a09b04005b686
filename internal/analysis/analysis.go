// Package analysis is histcube's stdlib-only static-analysis suite:
// a dependency-free analyzer driver built on go/parser, go/ast and
// go/types (no golang.org/x/tools), plus the project-specific
// analyzers that turn histcube's conventions into machine-checked
// invariants.
//
// The paper's central guarantee — append-only instances where updates
// only ever touch the latest instance R_{d-1}(t) (Section 2.2) and
// historic slices are immutable — and the invariants later PRs layered
// on top (WAL append-before-apply, the single-mutex server, the
// histcube_/histserve_ metric-name contract, guarded int64→int
// coordinate narrowing) were previously enforced only by convention.
// Each analyzer here makes one of them a CI regression instead of
// tribal knowledge; cmd/histlint is the command-line driver wired into
// check.sh and CI.
//
// Suppression: a diagnostic can be silenced with a directive comment
//
//	//histlint:ignore <analyzer> <reason>
//
// on the flagged line or on its own line directly above. The reason is
// mandatory — a directive without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`

	// Flattened position for -json output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the conventional file:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	Name string
	// Doc is a one-line description shown by histlint -list.
	Doc string
	// Run, when set, inspects one package at a time.
	Run func(*Pass) error
	// Finish, when set, is called once after Run has seen every
	// package — the hook whole-program analyses (the lock-order graph,
	// dead exports) use to report on state across packages. Its Pass
	// carries the FileSet, the merged suppression table and the run's
	// packages (Pkgs) but no Files/Pkg/Info.
	Finish func(*Pass) error
}

// Pass is one (analyzer, package) unit of work. Files are the parsed
// non-test sources of the package; Info holds full type information.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Pkgs is set on Finish passes: every package of the run.
	Pkgs []*Package

	loader   *Loader
	diags    *[]Diagnostic
	suppress *suppressions
}

// Program loads the whole program through the run's loader (see
// Loader.Program), whatever subset of it the run's patterns named.
func (p *Pass) Program() ([]*Package, error) { return p.loader.Program() }

type suppressKey struct {
	analyzer string
	file     string
	line     int
}

// directive is one parsed //histlint:ignore comment. used flips when
// it actually silences a finding, so the driver can report directives
// that rotted into suppressing nothing.
type directive struct {
	analyzer string
	pos      token.Position
	used     bool
}

// suppressions is the merged ignore-directive table of one driver run.
type suppressions struct {
	byKey map[suppressKey]*directive
	all   []*directive
}

func newSuppressions() *suppressions {
	return &suppressions{byKey: make(map[suppressKey]*directive)}
}

// Reportf records a diagnostic at pos unless an ignore directive
// covers it (in which case the directive is marked used).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if d := p.suppress.byKey[suppressKey{p.Analyzer.Name, position.Filename, position.Line}]; d != nil {
		d.used = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
	})
}

// PathHasSuffix reports whether an import path is, or ends in, the
// given slash-separated suffix. Analyzers key package identity on path
// suffixes ("internal/core", "internal/obs", ...) so the checks work
// unchanged inside the histcube module, on testdata fixtures and on
// the temporary modules the end-to-end tests build.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

const directivePrefix = "histlint:ignore"

// collect scans the files' comments for ignore directives and records
// the (analyzer, file, line) pairs they silence: the directive's own
// line and the line below it, so both end-of-line and stand-alone
// placement work. Malformed directives are reported under the
// pseudo-analyzer "histlint".
func (sup *suppressions) collect(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				position := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Analyzer: "histlint",
						Pos:      position,
						Message:  "ignore directive needs an analyzer name and a reason: //histlint:ignore <analyzer> <reason>",
						File:     position.Filename,
						Line:     position.Line,
						Col:      position.Column,
					})
					continue
				}
				d := &directive{analyzer: fields[0], pos: position}
				sup.all = append(sup.all, d)
				sup.byKey[suppressKey{d.analyzer, position.Filename, position.Line}] = d
				sup.byKey[suppressKey{d.analyzer, position.Filename, position.Line + 1}] = d
			}
		}
	}
}

// reportStale appends a finding for every directive that silenced
// nothing: either its analyzer ran and reported nothing there (the
// justified exception rotted — the code or the analyzer moved on), or
// the directive names an analyzer the suite has never heard of (a
// typo that would otherwise suppress nothing forever, silently).
// Directives for known analyzers that simply were not part of this
// run are left alone, so fixture runs of a single analyzer do not
// misreport the others' directives.
func (sup *suppressions) reportStale(ran map[string]bool, diags *[]Diagnostic) {
	for _, d := range sup.all {
		if d.used {
			continue
		}
		known := knownAnalyzerNames[d.analyzer]
		if !ran[d.analyzer] && known {
			continue
		}
		msg := fmt.Sprintf("stale ignore directive: no %s finding is suppressed here — remove it, or re-justify it against a real finding", d.analyzer)
		if !known {
			msg = fmt.Sprintf("ignore directive names unknown analyzer %q (typo? run histlint -list)", d.analyzer)
		}
		*diags = append(*diags, Diagnostic{
			Analyzer: "histlint",
			Pos:      d.pos,
			Message:  msg,
			File:     d.pos.Filename,
			Line:     d.pos.Line,
			Col:      d.pos.Column,
		})
	}
}
