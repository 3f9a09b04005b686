package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadExport holds internal/ to the rule that code reachable only from
// its own tests goes or gets wired in. Uses are counted over the whole
// program (Pass.Program), so the gate means the same on any subset of
// packages, and benchmark/ counts as a user without being checked.
var DeadExport = &Analyzer{
	Name:   "deadexport",
	Doc:    "every exported func, method, var and const under internal/ is referenced by a non-test file of the program",
	Finish: runDeadExport,
}

// export is one exported declaration under internal/. A reference
// inside its own declaration (a recursive call) does not use it.
type export struct {
	name *ast.Ident
	decl ast.Node
	used bool
}

// errorsMethods are found by package errors through any, so no
// interface type in the program names them.
var errorsMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

func runDeadExport(pass *Pass) error {
	exports := make(map[types.Object]*export)
	for _, pkg := range pass.Pkgs {
		if !under(pkg.ImportPath, "internal") {
			continue
		}
		add := func(name *ast.Ident, decl ast.Node) {
			if name.IsExported() {
				exports[pkg.Info.Defs[name]] = &export{name: name, decl: decl}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					if d.Tok != token.VAR && d.Tok != token.CONST {
						continue
					}
					for _, spec := range d.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							add(name, spec)
						}
					}
				}
			}
		}
	}
	if len(exports) == 0 {
		return nil
	}
	prog, err := pass.Program()
	if err != nil {
		return err
	}
	for _, pkg := range prog {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if e := exports[obj]; e != nil && (id.Pos() < e.decl.Pos() || id.Pos() >= e.decl.End()) {
				e.used = true
			}
		}
	}
	ifaces := interfaceMethods(prog)
	for obj, e := range exports {
		if e.used || satisfies(obj, ifaces) {
			continue
		}
		pass.Reportf(e.name.Pos(), "%s is referenced by no non-test file of the program: delete it or wire it in", exportName(obj))
	}
	return nil
}

// exportName is the name a reader greps for: core.Memory,
// (*core.Cube).Delete.
func exportName(obj types.Object) string {
	pkgName := func(p *types.Package) string { return p.Name() }
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), pkgName) + ")." + obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// interfaceMethods indexes by name the methods of every interface type
// the program mentions or finds in the scope of a package it imports
// (fmt.Stringer, heap.Interface, types.Importer, ...).
func interfaceMethods(prog []*Package) map[string][]types.Type {
	methods := make(map[string][]types.Type)
	seen := make(map[*types.Interface]bool)
	addType := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			methods[m.Name()] = append(methods[m.Name()], m.Type())
		}
	}
	for _, pkg := range prog {
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addType(tv.Type)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					addType(tn.Type())
				}
			}
		}
	}
	return methods
}

// satisfies reports whether obj is a method whose name and signature
// match a method of some interface: a call through that interface
// reaches it without naming it.
func satisfies(obj types.Object, ifaces map[string][]types.Type) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	if errorsMethods[fn.Name()] {
		return true
	}
	for _, t := range ifaces[fn.Name()] {
		if types.Identical(fn.Type(), t) {
			return true
		}
	}
	return false
}
