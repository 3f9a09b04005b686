package analysis

import (
	"strconv"
	"strings"
)

// ImportFence keeps apart package subtrees that must not meet; the
// fences table is the whole policy.
var ImportFence = &Analyzer{
	Name: "importfence",
	Doc:  "internal/paper is imported only by the reproduction code, internal/appendcube never by internal/histserve",
	Run:  runImportFence,
}

// A row makes importing anything under target a finding when the
// importer lies under one of from (empty: any package) and under none
// of except. Subtrees are module-relative.
var fences = []struct {
	target string
	from   []string
	except []string
	why    string
}{
	{
		// The general structures of the paper's Sections 2 and 4
		// (framework, mvbt, mversion, extent, hierarchy). The served
		// engine is the Section 3 specialisation, and the serving path
		// must not start leaning on a second Section 2.3 manager.
		target: "internal/paper",
		except: []string{"internal/paper", "internal/experiments", "cmd/histbench", "examples"},
		why:    "the paper-reference structures are reproduction-only; the serving path is internal/core -> internal/appendcube",
	},
	{
		// Log-then-apply (wal.Log.Apply) ends in the core facade's
		// ApplyOp.
		target: "internal/appendcube",
		from:   []string{"internal/histserve"},
		why:    "histserve must mutate through the core facade (wal.Log.Apply), not internal/appendcube directly",
	},
}

func runImportFence(pass *Pass) error {
	importer := pass.Pkg.Path()
	for _, fence := range fences {
		if (len(fence.from) > 0 && !underAny(importer, fence.from)) || underAny(importer, fence.except) {
			continue
		}
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && under(path, fence.target) {
					pass.Reportf(imp.Pos(), "%s may not import %s: %s", importer, path, fence.why)
				}
			}
		}
	}
	return nil
}

// under reports whether the import path is the root of the subtree or
// lies below it, whatever module prefix precedes it.
func under(path, tree string) bool {
	return strings.Contains("/"+path+"/", "/"+tree+"/")
}

func underAny(path string, trees []string) bool {
	for _, tree := range trees {
		if under(path, tree) {
			return true
		}
	}
	return false
}
