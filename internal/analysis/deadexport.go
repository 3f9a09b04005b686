package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
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
	ifaces, called := interfaceMethods(prog)
	for obj, e := range exports {
		if e.used || reachedThroughInterface(obj, ifaces, called, pass.loader.ModulePath) {
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

// interfaceMethods indexes by method name every interface type the
// program mentions or finds in the scope of a package it imports
// (fmt.Stringer, heap.Interface, types.Importer, ...), and returns the
// set of interface methods the program calls.
func interfaceMethods(prog []*Package) (map[string][]*types.Interface, map[*types.Func]bool) {
	ifaces := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	addType := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	called := make(map[*types.Func]bool)
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
		for _, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[fn.Origin()] = true
			}
		}
	}
	return ifaces, called
}

// reachedThroughInterface reports whether a call through an interface
// reaches the method obj without naming it: its receiver type (T or
// *T) implements an interface with a method of its name, and that
// interface comes from outside the module (package errors, fmt or
// container/heap calls it) or the program calls that method through it.
func reachedThroughInterface(obj types.Object, ifaces map[string][]*types.Interface, called map[*types.Func]bool, module string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	if errorsMethods[fn.Name()] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if !types.Implements(recv, it) && !types.Implements(types.NewPointer(recv), it) {
			continue
		}
		m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name())
		im := m.(*types.Func)
		if im.Pkg() == nil || !inModule(im.Pkg().Path(), module) || called[im.Origin()] {
			return true
		}
	}
	return false
}

// inModule reports whether the import path names a package of module.
func inModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}
