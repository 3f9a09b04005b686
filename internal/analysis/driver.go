package analysis

import (
	"fmt"
	"sort"
)

// Run loads the packages matched by patterns (relative to dir, which
// must lie inside a Go module) and applies every analyzer to every
// package. Diagnostics come back sorted by position; an error means
// the load or an analyzer itself failed, not that findings exist.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(loader, pkgs, analyzers)
}

// RunPackages applies the analyzers to already-loaded packages — the
// entry point tests use to drive analyzers over fixtures. After every
// per-package pass it runs each analyzer's Finish hook (whole-program
// state), then reports ignore directives that suppressed nothing.
func RunPackages(loader *Loader, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	sup := newSuppressions()
	for _, pkg := range pkgs {
		sup.collect(loader.Fset, pkg.Files, &diags)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     loader.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
				suppress: sup,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.Finish == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: loader.Fset, diags: &diags, suppress: sup}
		if err := a.Finish(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s finish: %w", a.Name, err)
		}
	}
	sup.reportStale(ran, &diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// knownAnalyzerNames is every analyzer name the suite has ever heard
// of (plus the "histlint" pseudo-analyzer), so a directive naming
// something else can be called out as a typo no matter which subset of
// analyzers a run uses.
var knownAnalyzerNames = map[string]bool{
	"histlint":          true,
	"appendbeforeapply": true,
	"coordnarrow":       true,
	"deferunlock":       true,
	"errwrap":           true,
	"importfence":       true,
	"lockorder":         true,
	"metricname":        true,
	"mutexguard":        true,
	"nofloateq":         true,
}

// All returns the full histcube analyzer suite in stable order, with a
// fresh lock-order accumulator. Use AllWith to keep a handle on the
// accumulator (DOT export).
func All() []*Analyzer {
	return AllWith(NewLockOrder())
}

// AllWith returns the full suite wired to the given lock-order
// accumulator, so callers (cmd/histlint's -lockgraph) can export the
// acquisition graph after the run.
func AllWith(lo *LockOrder) []*Analyzer {
	return []*Analyzer{
		AppendBeforeApply,
		CoordNarrow,
		DeferUnlock,
		ErrWrap,
		ImportFence,
		lo.Analyzer(),
		MetricName,
		MutexGuard,
		NoFloatEq,
	}
}
