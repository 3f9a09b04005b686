package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package: the unit an
// analyzer pass runs over. Only non-test files are loaded — the suite
// checks production code; tests are deliberately exempt from rules
// like the dropped-Close check.
type Package struct {
	Dir        string
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader resolves and type-checks packages of one Go module without
// shelling out to the go tool: module-internal import paths map to
// directories under the module root, everything else (the standard
// library) goes through the stdlib source importer. Loaded packages
// are cached, so one Loader amortises the stdlib type-checking cost
// across many Load calls. A Loader is not safe for concurrent use.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	ctxt    build.Context
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, err := findModuleRoot(abs)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The source importer type-checks dependencies from GOROOT source.
	// It reads the global build context, so disable cgo there too:
	// histcube is pure Go, and the cgo-free variants of net and friends
	// type-check without invoking the cgo tool.
	build.Default.CgoEnabled = false
	ctxt := build.Default
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		ctxt:       ctxt,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if isFile(filepath.Join(d, "go.mod")) {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found in or above %s", dir)
		}
		d = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			path := strings.TrimSpace(rest)
			path = strings.Trim(path, `"`)
			if path != "" {
				return path, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module path in %s", gomod)
}

// Load expands the patterns relative to base (a directory inside the
// module; empty means the module root) and returns the matched
// packages, type-checked, in deterministic order. Patterns are
// directories ("./internal/core") or recursive globs ("./...",
// "./internal/..."); recursive expansion skips testdata, vendor,
// hidden directories and nested modules, as the go tool does.
func (l *Loader) Load(base string, patterns ...string) ([]*Package, error) {
	if base == "" {
		base = l.ModuleRoot
	}
	abs, err := filepath.Abs(base)
	if err != nil {
		return nil, err
	}
	dirs, err := l.expand(abs, patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// expand resolves patterns to package directories (absolute paths).
func (l *Loader) expand(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rec := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		fi, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q is not a directory", pat)
		}
		if !rec {
			add(dir)
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			// A nested module (benchmark/) is not part of this one: its
			// import paths resolve against its own go.mod, and the go
			// tool's ./... leaves it out as well.
			if path != dir && isFile(filepath.Join(path, "go.mod")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir()
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a package directory to its import path within
// the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// dirForImport is the inverse mapping for module-internal imports.
func (l *Loader) dirForImport(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// loadDir parses and type-checks the package in dir (memoised).
func (l *Loader) loadDir(dir string) (*Package, error) {
	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer:                 (*loaderImporter)(l),
		FakeImportC:              true,
		Error:                    func(err error) { typeErrs = append(typeErrs, err) },
		DisableUnusedImportCheck: true,
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", importPath, strings.Join(msgs, "\n\t"))
	}
	p := &Package{Dir: dir, ImportPath: importPath, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// loaderImporter adapts the loader to types.Importer: module-internal
// paths load from source inside the module, everything else falls back
// to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.loadDir(l.dirForImport(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
