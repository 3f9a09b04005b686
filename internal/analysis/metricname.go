package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// MetricName enforces the metric naming contract from the
// observability PR: every metric registered on the obs registry
// carries a constant snake_case name under the histcube_, histserve_
// or histproxy_ prefix, and no name is registered from two different
// sites in a package. Dashboards and the /metrics scrape contract key
// on these literals; a computed name defeats grep-ability, and a
// double registration either panics at runtime or silently merges two
// series.
//
// The same contract covers trace span names (trace.New and
// Span.StartChild): constant dotted snake_case under the histcube.,
// histserve. or proxy. prefix (proxy. is internal/histproxy's namespace —
// proxy.query roots with one proxy.leg child per fan-out), so EXPLAIN
// output and slow-query log entries stay grep-able against the
// source. Spans carry no duplicate-site check — unlike a metric
// series, the same span name legitimately starts from many call
// sites.
//
// Every family registered at a literal name must also have a reader:
// a string literal that names it, bare or with a histogram's _bucket,
// _sum or _count suffix, in a _test.go file of the module or in a .go
// file of a nested module that replaces it (benchmark/). A read by name
// checks the series an operator scrapes; a read through the Go handle
// passes a misspelt registration.
var MetricName = &Analyzer{
	Name:   "metricname",
	Doc:    "obs metrics and trace spans use constant histcube/histserve/histproxy snake_case names, and a test or benchmark/ reads every metric family by name",
	Run:    runMetricName,
	Finish: runMetricReaders,
}

var (
	metricNameRE = regexp.MustCompile(`^(histcube|histserve|histproxy)(_[a-z0-9]+)+$`)
	spanNameRE   = regexp.MustCompile(`^(histcube|histserve|proxy)(\.[a-z0-9_]+)+$`)
	// nameRunRE splits a reader's literal into the runs a family name
	// can fill: `histserve_request_seconds_count{cmd="INS"}` holds
	// histserve_request_seconds_count and cmd.
	nameRunRE = regexp.MustCompile(`[a-z0-9_]+`)
)

var metricRegisterMethods = map[string]bool{
	"NewCounter":          true,
	"NewGauge":            true,
	"NewHistogram":        true,
	"NewCounterFunc":      true,
	"NewFloatCounterFunc": true,
	"NewGaugeFunc":        true,
}

func runMetricName(pass *Pass) error {
	// name -> first registration site, for the duplicate check.
	sites := make(map[string]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if checkSpanName(pass, call) {
				return true
			}
			if !isMetricRegistration(pass, call) {
				return true
			}
			name, isConst := constantString(pass, call.Args[0])
			if !isConst {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %s is not a string constant: names must be grep-able literals (the /metrics scrape contract keys on them)",
					types.ExprString(call.Args[0]))
				return true
			}
			if !metricNameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q violates the naming contract: want histcube_/histserve_/histproxy_ prefix and lower snake_case (%s)",
					name, metricNameRE)
				return true
			}
			pos := pass.Fset.Position(call.Pos())
			site := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			if first, dup := sites[name]; dup {
				pass.Reportf(call.Args[0].Pos(),
					"metric %q is registered at two sites (first at %s): double registration panics or merges two series", name, first)
			} else {
				sites[name] = site
			}
			return true
		})
	}
	return nil
}

// isMetricRegistration reports whether call registers a family on
// internal/obs's Registry.
func isMetricRegistration(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeMethod(pass, call)
	return fn != nil && fn.Pkg() != nil && metricRegisterMethods[fn.Name()] &&
		PathHasSuffix(fn.Pkg().Path(), "internal/obs") && len(call.Args) > 0
}

// runMetricReaders reports each registration site of a well-formed
// family that no reader names.
func runMetricReaders(pass *Pass) error {
	unread := make(map[string][]token.Pos)
	for _, pkg := range pass.Pkgs {
		pp := *pass
		pp.Info = pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isMetricRegistration(&pp, call) {
					return true
				}
				if name, ok := constantString(&pp, call.Args[0]); ok && metricNameRE.MatchString(name) {
					unread[name] = append(unread[name], call.Args[0].Pos())
				}
				return true
			})
		}
	}
	if len(unread) == 0 {
		return nil
	}
	err := readerLiterals(pass.loader, func(lit string) {
		for _, run := range nameRunRE.FindAllString(lit, -1) {
			delete(unread, run)
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				delete(unread, strings.TrimSuffix(run, suffix))
			}
		}
	})
	if err != nil {
		return err
	}
	for name, sites := range unread {
		for _, pos := range sites {
			pass.Reportf(pos, "metric %q is read by name in no test and nowhere in benchmark/: assert it by name where its event is driven, or delete it", name)
		}
	}
	return nil
}

// readerLiterals calls fn with every string literal of the files that
// can read a metric: the module's _test.go files and each .go file of a
// nested module that replaces this one. Other nested modules, testdata
// and directories named .* or _* are skipped, as the go tool skips them.
func readerLiterals(l *Loader, fn func(string)) error {
	fset := token.NewFileSet()
	nested := ""
	return filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == l.ModuleRoot {
			return err
		}
		if d.IsDir() {
			if skippedDir(d.Name()) {
				return filepath.SkipDir
			}
			if gomod := filepath.Join(path, "go.mod"); isFile(gomod) {
				if !l.replacedIn(gomod) {
					return filepath.SkipDir
				}
				nested = path + string(filepath.Separator)
			}
			return nil
		}
		inNested := nested != "" && strings.HasPrefix(path, nested)
		if !strings.HasSuffix(path, ".go") || !inNested && !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					fn(s)
				}
			}
			return true
		})
		return nil
	})
}

// checkSpanName reports whether call is a span-starting call
// (trace.New or Span.StartChild on histcube's internal/trace), and if
// so checks the name argument against the span naming contract.
func checkSpanName(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	isNew := fn != nil && fn.Pkg() != nil && fn.Name() == "New" &&
		PathHasSuffix(fn.Pkg().Path(), "internal/trace")
	if !isNew {
		fn = calleeMethod(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Name() != "StartChild" ||
			!PathHasSuffix(fn.Pkg().Path(), "internal/trace") {
			return false
		}
	}
	if len(call.Args) == 0 {
		return true
	}
	name, isConst := constantString(pass, call.Args[0])
	if !isConst {
		pass.Reportf(call.Args[0].Pos(),
			"span name %s is not a string constant: names must be grep-able literals (EXPLAIN and slow-log entries key on them)",
			types.ExprString(call.Args[0]))
		return true
	}
	if !spanNameRE.MatchString(name) {
		pass.Reportf(call.Args[0].Pos(),
			"span name %q violates the naming contract: want histcube./histserve./proxy. prefix and dotted lower snake_case (%s)",
			name, spanNameRE)
	}
	return true
}
