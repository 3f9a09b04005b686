package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AppendBeforeApply enforces the write-ahead ordering and mutation
// confinement of the op-sink architecture (core.Op / Cube.SetOpSink /
// wal replay):
//
//  1. append-before-apply: an exported method that applies a mutation
//     (calls the receiver's unexported apply/applyDelta) on a type
//     that has a logOp method must call logOp first — the durable sink
//     sees every mutation before it takes effect, so an acknowledged
//     op is always in the log. ApplyOp is the deliberate, documented
//     exception: it is the replay path and bypasses the sink.
//  2. apply confinement: inside internal/core, only the apply method
//     itself may call (*appendcube.Cube).Update or UpdateCtx — every
//     other call site would mutate historic-slice state behind the
//     sink's back.
//  3. replay confinement: only WAL recovery (internal/wal) may call
//     core's ApplyOp; anywhere else it is a sink bypass.
//
// Together with importfence's row that keeps cmd/histserve off
// internal/appendcube altogether, these make the paper's Section 2.2
// append-only contract — "updates only affect the latest instance",
// historic slices immutable — a property the build enforces rather
// than one reviews must catch.
var AppendBeforeApply = &Analyzer{
	Name: "appendbeforeapply",
	Doc:  "mutations are logged to the op sink before they are applied, and apply paths stay confined",
	Run:  runAppendBeforeApply,
}

func runAppendBeforeApply(pass *Pass) error {
	pkgPath := pass.Pkg.Path()
	inCore := PathHasSuffix(pkgPath, "internal/core")
	inWal := PathHasSuffix(pkgPath, "internal/wal")

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLogBeforeApply(pass, fd)
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
							"appendcube.Cube.%s called outside apply: historic-slice mutations must route through the op-sink path (core.apply)", fn.Name())
					}
				case fn.Name() == "ApplyOp" && PathHasSuffix(fn.Pkg().Path(), "internal/core") && !inWal && !inCore:
					pass.Reportf(call.Pos(),
						"core ApplyOp bypasses the op sink; only WAL recovery (internal/wal) may replay ops")
				}
				return true
			})
		}
	}
	return nil
}

// checkLogBeforeApply implements rule 1 for one method declaration.
func checkLogBeforeApply(pass *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Name.Name == "ApplyOp" {
		return
	}
	tn := receiverTypeName(pass, fd)
	if tn == nil || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recvIdent := fd.Recv.List[0].Names[0]
	recvVar := pass.Info.Defs[recvIdent]
	if recvVar == nil {
		return
	}

	var firstApply *ast.CallExpr
	var firstLog token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		se, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		baseIdent, _ := baseIdentVar(pass, se.X)
		if baseIdent == nil || pass.Info.Uses[baseIdent] != recvVar {
			return true
		}
		switch se.Sel.Name {
		case "apply", "applyDelta":
			if firstApply == nil || call.Pos() < firstApply.Pos() {
				firstApply = call
			}
		case "logOp":
			if firstLog == token.NoPos || call.Pos() < firstLog {
				firstLog = call.Pos()
			}
		}
		return true
	})
	if firstApply == nil {
		return
	}
	// Only types wired to an op sink are in scope: the receiver type
	// must have a logOp method.
	if !hasMethod(tn, "logOp") {
		return
	}
	if firstLog == token.NoPos {
		pass.Reportf(firstApply.Pos(),
			"exported method %s.%s applies a mutation without logging it first: call logOp before apply so the WAL sink sees every acknowledged op", tn.Name(), fd.Name.Name)
	} else if firstLog > firstApply.Pos() {
		pass.Reportf(firstApply.Pos(),
			"%s.%s applies the mutation before logging it: logOp must precede apply (append-before-apply)", tn.Name(), fd.Name.Name)
	}
}

func hasMethod(tn *types.TypeName, name string) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}
