package analysis

import (
	"go/ast"
	"go/types"
)

// AppendBeforeApply enforces the mutation confinement of the
// log-then-apply path (wal.Log.Apply, which stages an op in the log and
// then hands it to core.Cube.ApplyOp):
//
//  1. apply confinement: inside internal/core, only the apply method
//     itself may call (*appendcube.Cube).Update or UpdateCtx — every
//     other call site would mutate historic-slice state past ApplyOp,
//     the cube's one mutation path.
//  2. log confinement: only internal/wal (Log.Apply, and recovery
//     replaying what the log already holds) and core itself call
//     core.Cube.ApplyOp, and cmd/histserve calls no core.Cube mutator
//     at all, so every op the served binary applies is logged first.
//
// Together with importfence's row that keeps cmd/histserve off
// internal/appendcube altogether, these make the paper's Section 2.2
// append-only contract — "updates only affect the latest instance",
// historic slices immutable — a property the build enforces rather
// than one reviews must catch.
var AppendBeforeApply = &Analyzer{
	Name: "appendbeforeapply",
	Doc:  "mutations reach the cube only through the log (wal.Log.Apply), and apply paths stay confined",
	Run:  runAppendBeforeApply,
}

// cubeMutators are the core.Cube methods that change its data.
var cubeMutators = map[string]bool{"ApplyOp": true, "Insert": true}

func runAppendBeforeApply(pass *Pass) error {
	pkgPath := pass.Pkg.Path()
	inCore := PathHasSuffix(pkgPath, "internal/core")
	inWal := PathHasSuffix(pkgPath, "internal/wal")
	inServer := PathHasSuffix(pkgPath, "cmd/histserve")

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeMethod(pass, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch {
				case inCore && (fn.Name() == "Update" || fn.Name() == "UpdateCtx") && PathHasSuffix(fn.Pkg().Path(), "internal/appendcube"):
					if fd.Name.Name != "apply" {
						pass.Reportf(call.Pos(),
							"appendcube.Cube.%s called outside apply: historic-slice mutations must route through core.Cube.ApplyOp", fn.Name())
					}
				case !isCoreCubeMethod(fn) || !cubeMutators[fn.Name()]:
				case fn.Name() == "ApplyOp" && !inWal && !inCore:
					pass.Reportf(call.Pos(),
						"core.Cube.ApplyOp bypasses the log; only internal/wal (Log.Apply and recovery replay) may apply ops")
				case inServer:
					pass.Reportf(call.Pos(),
						"cmd/histserve calls core.Cube.%s: served mutations go through wal.Log.Apply, which logs them before the cube applies them", fn.Name())
				}
				return true
			})
		}
	}
	return nil
}

// isCoreCubeMethod reports whether fn is a method of internal/core's
// Cube.
func isCoreCubeMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !PathHasSuffix(fn.Pkg().Path(), "internal/core") {
		return false
	}
	n := namedOf(recv.Type())
	return n != nil && n.Obj().Name() == "Cube"
}
