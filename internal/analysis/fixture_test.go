package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"histcube/internal/analysis"
)

// Fixture convention: each analyzer has a self-contained Go module
// under testdata/src/<name>/. Lines that must be diagnosed carry a
// comment containing `want` followed by one or more backquoted
// regexps; every reported diagnostic must match a want on its line and
// every want must be hit.

var (
	wantLineRE = regexp.MustCompile("want ((?:`[^`]+`[ \t]*)+)$")
	wantPatRE  = regexp.MustCompile("`([^`]+)`")
)

type wantMark struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func parseWants(t *testing.T, dir string) []*wantMark {
	t.Helper()
	var wants []*wantMark
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantLineRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, pat := range wantPatRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(pat[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %w", path, i+1, pat[1], err)
				}
				wants = append(wants, &wantMark{file: abs, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func runFixture(t *testing.T, name string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", name)
	}
	diags, err := analysis.RunPackages(loader, pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// checkFixture runs one analyzer over its fixture module and compares
// the diagnostics against the want marks.
func checkFixture(t *testing.T, a *analysis.Analyzer) {
	t.Helper()
	diags := runFixture(t, a.Name, a)
	wants := parseWants(t, filepath.Join("testdata", "src", a.Name))
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no want marks", a.Name)
	}
outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMutexGuard(t *testing.T)        { checkFixture(t, analysis.MutexGuard) }
func TestAppendBeforeApply(t *testing.T) { checkFixture(t, analysis.AppendBeforeApply) }
func TestMetricName(t *testing.T)        { checkFixture(t, analysis.MetricName) }
func TestCoordNarrow(t *testing.T)       { checkFixture(t, analysis.CoordNarrow) }
func TestErrWrap(t *testing.T)           { checkFixture(t, analysis.ErrWrap) }
func TestNoFloatEq(t *testing.T)         { checkFixture(t, analysis.NoFloatEq) }
func TestDeferUnlock(t *testing.T)       { checkFixture(t, analysis.DeferUnlock) }
func TestImportFence(t *testing.T)       { checkFixture(t, analysis.ImportFence) }
func TestDeadExport(t *testing.T)        { checkFixture(t, analysis.DeadExport) }

// TestLockOrder uses a fresh accumulator: its state is per-run by
// design, and sharing one across tests would merge the graphs.
func TestLockOrder(t *testing.T) { checkFixture(t, analysis.NewLockOrder().Analyzer()) }

// TestMalformedDirective checks the no-analyzer run of the directives
// fixture: a directive without a reason is reported, and a directive
// naming an analyzer the suite has never heard of is reported even
// though nothing ran — a typo must not suppress nothing, silently,
// forever. Directives for known analyzers that were not part of the
// run are left alone.
func TestMalformedDirective(t *testing.T) {
	diags := runFixture(t, "directives")
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if d := diags[0]; d.Analyzer != "histlint" || !strings.Contains(d.Message, "needs an analyzer name and a reason") {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
	if d := diags[1]; d.Analyzer != "histlint" || !strings.Contains(d.Message, `unknown analyzer "nofloatql"`) {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
}

// TestStaleDirective runs the directives fixture WITH nofloateq: now
// the directive that suppresses nothing is stale, while the one that
// still covers a real finding stays silent (and so does the finding).
func TestStaleDirective(t *testing.T) {
	diags := runFixture(t, "directives", analysis.NoFloatEq)
	var stale []analysis.Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "stale ignore directive") {
			stale = append(stale, d)
		}
		if d.Analyzer == "nofloateq" {
			t.Errorf("the justified directive should have suppressed this: %s", d)
		}
	}
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "no nofloateq finding is suppressed here") {
		t.Fatalf("got stale diagnostics %v, want exactly one for the rotted nofloateq directive", stale)
	}
	if len(diags) != 3 { // malformed + unknown + stale
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
}
