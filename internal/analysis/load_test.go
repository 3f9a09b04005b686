package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"histcube/internal/analysis"
)

func TestLoaderModuleResolution(t *testing.T) {
	dir := filepath.Join("testdata", "src", "appendbeforeapply")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModulePath != "example.com/appendbeforeapply" {
		t.Fatalf("module path = %q", loader.ModulePath)
	}
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"example.com/appendbeforeapply/internal/appendcube",
		"example.com/appendbeforeapply/internal/core",
		"example.com/appendbeforeapply/internal/histserve",
		"example.com/appendbeforeapply/internal/wal",
	}
	if len(pkgs) != len(want) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(want))
	}
	for i, p := range pkgs {
		if p.ImportPath != want[i] {
			t.Errorf("package %d = %s, want %s", i, p.ImportPath, want[i])
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded without types or files", p.ImportPath)
		}
	}
}

func TestLoaderSinglePackagePattern(t *testing.T) {
	dir := filepath.Join("testdata", "src", "appendbeforeapply")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir, "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "example.com/appendbeforeapply/internal/core" {
		t.Fatalf("unexpected packages: %+v", pkgs)
	}
}

// TestLoaderSkipsNestedModules pins ./... to the go tool's meaning: a
// subdirectory with its own go.mod (this repo's benchmark/) is another
// module and is not loaded, so its findings cannot fail this one's gate.
func TestLoaderSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod":            "module example.com/outer\n\ngo 1.22\n",
		"a/a.go":            "package a\n",
		"nested/go.mod":     "module example.com/nested\n\ngo 1.22\n",
		"nested/n.go":       "package nested\n",
		"nested/sub/sub.go": "package sub\n",
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "example.com/outer/a" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.ImportPath)
		}
		t.Fatalf("loaded %v, want only example.com/outer/a", got)
	}
}

func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"histcube/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"example.com/x/internal/core", "internal/core", true},
		{"histcube/internal/coreext", "internal/core", false},
		{"histcube/xinternal/core", "internal/core", false},
	}
	for _, c := range cases {
		if got := analysis.PathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("PathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}
