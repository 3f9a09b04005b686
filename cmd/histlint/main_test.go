package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// buildHistlint compiles the histlint binary once into a temp dir.
func buildHistlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "histlint")
	cmd := exec.Command("go", "build", "-o", bin, "histcube/cmd/histlint")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building histlint: %v\n%s", err, out)
	}
	return bin
}

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// dirtyModule is a self-contained module with exactly one violation
// per analyzer, at known positions.
func dirtyModule(t *testing.T) string {
	return writeTree(t, map[string]string{
		"go.mod": "module tempmod\n\ngo 1.22\n",
		"internal/obs/obs.go": `package obs

type Counter struct{}

type Registry struct{}

func (r *Registry) NewCounter(name, help string) *Counter { return &Counter{} }
`,
		"internal/appendcube/cube.go": `package appendcube

type Cube struct{ cells []float64 }

func (c *Cube) Update(i int, v float64) { c.cells[i] += v }
`,
		"internal/paper/framework/framework.go": "package framework\n",
		// The fenced import is on line 5, InsertUnlogged's Update call,
		// which skips the cube's one mutation path, on line 16.
		"internal/core/core.go": `package core

import (
	"tempmod/internal/appendcube"
	_ "tempmod/internal/paper/framework"
)

type Op struct{ Cell int }

type Cube struct{ inner *appendcube.Cube }

// apply is the one caller of Update.
func (c *Cube) apply(op Op) { c.inner.Update(op.Cell, 1) }

func (c *Cube) InsertUnlogged(op Op) {
	c.inner.Update(op.Cell, 1)
}
`,
		// One violation per remaining per-package analyzer plus a stale
		// directive, at the line numbers asserted in `expected`.
		"lint.go": `package tempmod

import (
	"fmt"
	"sync"

	"tempmod/internal/obs"
)

type box struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (b *box) peek() int { return b.n }

func narrow(v int64) int {
	return int(v)
}

func wrap(err error) error {
	return fmt.Errorf("failed: %v", err)
}

func metric(reg *obs.Registry) {
	reg.NewCounter("Bad_Name", "malformed")
}

func floatEq(a, b float64) bool {
	return a == b
}

func (b *box) leak(c bool) int {
	b.mu.Lock()
	if c {
		return 0
	}
	b.mu.Unlock()
	return 1
}

func rotted() int {
	//histlint:ignore coordnarrow the narrowing this justified is gone
	return 0
}
`,
		// An AB/BA inversion across two methods: the lockorder cycle is
		// whole-program state, reported at the earliest witnessing edge.
		"locks.go": `package tempmod

import "sync"

type la struct{ mu sync.Mutex }

type lb struct{ mu sync.Mutex }

type lockPair struct {
	a la
	b lb
}

func (p *lockPair) fwd() {
	p.a.mu.Lock()
	defer p.a.mu.Unlock()
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
}

func (p *lockPair) rev() {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	p.a.mu.Lock()
	defer p.a.mu.Unlock()
}
`,
	})
}

// expected diagnostics for dirtyModule, in the driver's sort order
// (file, then line): one per analyzer.
var expected = []struct {
	file     string
	line     int
	analyzer string
	fragment string
}{
	{"internal/core/core.go", 5, "importfence", "internal/core may not import tempmod/internal/paper/framework"},
	{"internal/core/core.go", 15, "deadexport", "(*core.Cube).InsertUnlogged is referenced by no non-test file"},
	{"internal/core/core.go", 16, "appendbeforeapply", "appendcube.Cube.Update called outside apply"},
	{"lint.go", 15, "mutexguard", "box.n is guarded by mu"},
	{"lint.go", 18, "coordnarrow", "unguarded narrowing int(v)"},
	{"lint.go", 22, "errwrap", "use %w"},
	{"lint.go", 26, "metricname", "violates the naming contract"},
	{"lint.go", 30, "nofloateq", "floating-point == comparison"},
	{"lint.go", 34, "deferunlock", "not released on every path"},
	{"lint.go", 43, "histlint", "stale ignore directive: no coordnarrow finding"},
	{"locks.go", 17, "lockorder", "lock-order cycle"},
}

func runHistlint(t *testing.T, bin, dir string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running histlint: %v", err)
	}
	return out.String(), errb.String(), exit
}

func TestHistlintEndToEnd(t *testing.T) {
	bin := buildHistlint(t)
	dir := dirtyModule(t)

	stdout, stderr, exit := runHistlint(t, bin, dir)
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != len(expected) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(lines), len(expected), stdout)
	}
	for i, want := range expected {
		prefix := filepath.Join(dir, filepath.FromSlash(want.file))
		wantHead := prefix + ":" + strconv.Itoa(want.line) + ":"
		if !strings.HasPrefix(lines[i], wantHead) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], wantHead)
		}
		if !strings.Contains(lines[i], ": "+want.analyzer+": ") {
			t.Errorf("line %d = %q, want analyzer %q", i, lines[i], want.analyzer)
		}
		if !strings.Contains(lines[i], want.fragment) {
			t.Errorf("line %d = %q, want fragment %q", i, lines[i], want.fragment)
		}
	}
	if !strings.Contains(stderr, strconv.Itoa(len(expected))+" finding(s)") {
		t.Errorf("stderr = %q, want finding count", stderr)
	}
}

// TestHistlintLockGraph checks the DOT export: written even when
// findings exist, containing both halves of the dirty module's
// inversion, and stable (sorted) line order.
func TestHistlintLockGraph(t *testing.T) {
	bin := buildHistlint(t)
	dir := dirtyModule(t)
	dot := filepath.Join(t.TempDir(), "lockgraph.dot")

	_, _, exit := runHistlint(t, bin, dir, "-lockgraph", dot)
	if exit != 1 {
		t.Fatalf("exit = %d, want 1", exit)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatalf("lock graph not written: %v", err)
	}
	graph := string(data)
	for _, want := range []string{
		"digraph lockorder {",
		`"tempmod.la.mu" -> "tempmod.lb.mu";`,
		`"tempmod.lb.mu" -> "tempmod.la.mu";`,
	} {
		if !strings.Contains(graph, want) {
			t.Errorf("lock graph missing %q:\n%s", want, graph)
		}
	}
	fwd := strings.Index(graph, `"tempmod.la.mu" -> "tempmod.lb.mu";`)
	rev := strings.Index(graph, `"tempmod.lb.mu" -> "tempmod.la.mu";`)
	if fwd > rev {
		t.Errorf("edges not sorted:\n%s", graph)
	}
}

// TestHistlintLockGraphClean: an acyclic module exports a graph and
// exits 0 — the artifact is for review, not only for failures.
func TestHistlintLockGraphClean(t *testing.T) {
	bin := buildHistlint(t)
	dir := writeTree(t, map[string]string{
		"go.mod": "module cleanmod\n\ngo 1.22\n",
		"safe.go": `package cleanmod

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}
`,
	})
	dot := filepath.Join(t.TempDir(), "lockgraph.dot")
	stdout, stderr, exit := runHistlint(t, bin, dir, "-lockgraph", dot)
	if exit != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatalf("lock graph not written: %v", err)
	}
	if !strings.Contains(string(data), `"cleanmod.counter.mu";`) {
		t.Errorf("lock graph missing the node:\n%s", data)
	}
	if strings.Contains(string(data), "->") {
		t.Errorf("single-lock module should have no edges:\n%s", data)
	}
}

// TestHistlintLockGraphBehindCommandTable guards check.sh's gate on
// the edge histserve.Server.mu -> wal.Log.syncMu against going vacuous:
// histserve's handlers and its settle function are reached only through
// func values in a command table (internal/lineserver calls them), and
// the graph follows static calls only. It does not need to follow the
// table: every function body is scanned whether or not anything calls
// it by name, so a Commit under the server mutex inside a handler, or
// inside a helper the handler calls, still draws the forbidden edge.
func TestHistlintLockGraphBehindCommandTable(t *testing.T) {
	bin := buildHistlint(t)
	dir := writeTree(t, map[string]string{
		"go.mod": "module example.com/histserve\n\ngo 1.22\n",
		"table.go": `package histserve

import "sync"

type wlog struct {
	syncMu sync.Mutex
	synced int // guarded by syncMu
}

func (l *wlog) Commit() {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.synced++
}

type command struct {
	verb   string
	handle func(line string) string
}

type Server struct {
	mu   sync.Mutex
	n    int // guarded by mu
	log  *wlog
	rows []command
}

func newServer() *Server {
	s := &Server{log: &wlog{}}
	s.rows = []command{{"INS", s.insert}}
	return s
}

// serve is the only caller of a handler, and only by func value.
func (s *Server) serve(line string) string { return s.rows[0].handle(line) }

func (s *Server) insert(line string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.settle()
	return "OK"
}

func (s *Server) settle() { s.log.Commit() }
`,
	})
	dot := filepath.Join(t.TempDir(), "lockgraph.dot")
	stdout, stderr, exit := runHistlint(t, bin, dir, "-lockgraph", dot)
	if exit != 0 {
		t.Fatalf("exit = %d, want 0 (the edge is a graph fact, not a finding)\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatalf("lock graph not written: %v", err)
	}
	if want := `"histserve.Server.mu" -> "histserve.wlog.syncMu";`; !strings.Contains(string(data), want) {
		t.Errorf("lock graph missing %q: a commit under the mutex hid behind the table\n%s", want, data)
	}
}

func TestHistlintJSON(t *testing.T) {
	bin := buildHistlint(t)
	dir := dirtyModule(t)

	stdout, _, exit := runHistlint(t, bin, dir, "-json")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\n%s", exit, stdout)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if len(diags) != len(expected) {
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(expected))
	}
	for i, want := range expected {
		d := diags[i]
		if d.Analyzer != want.analyzer || d.Line != want.line || d.Col == 0 ||
			d.File != filepath.Join(dir, filepath.FromSlash(want.file)) ||
			!strings.Contains(d.Message, want.fragment) {
			t.Errorf("diagnostic %d = %+v, want %+v", i, d, want)
		}
	}
}

func TestHistlintCleanModule(t *testing.T) {
	bin := buildHistlint(t)
	dir := writeTree(t, map[string]string{
		"go.mod":  "module cleanmod\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() {}\n",
	})
	stdout, stderr, exit := runHistlint(t, bin, dir)
	if exit != 0 || strings.TrimSpace(stdout) != "" {
		t.Fatalf("exit = %d, stdout = %q, stderr = %q; want clean exit 0", exit, stdout, stderr)
	}
}

func TestHistlintBadPattern(t *testing.T) {
	bin := buildHistlint(t)
	dir := writeTree(t, map[string]string{
		"go.mod": "module cleanmod\n\ngo 1.22\n",
	})
	_, stderr, exit := runHistlint(t, bin, dir, "./nonexistent")
	if exit != 2 {
		t.Fatalf("exit = %d, want 2 (stderr %q)", exit, stderr)
	}
}

// copyModule copies what histlint reads of this module — every go.mod
// and the Go sources, tests included (metricname finds a family's
// readers there), testdata left out, benchmark/ kept as the second root
// of uses — into a temp dir.
func copyModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && !strings.HasSuffix(name, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestHistlintBitesInTheRealTree seeds at least one violation per
// analyzer into a copy of this module — not a fixture — and requires that analyzer's
// finding on the seeded line. The seeds in internal/histserve sit in
// handlers that only the command table reaches, by func value, so an
// analyzer that needed a static caller to see a body would find nothing
// here; and an analyzer dropped from the suite fails its row.
func TestHistlintBitesInTheRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the whole module")
	}
	const server = "internal/histserve/server.go"
	// Split, or this file, copied along with the module, would read it.
	const unread = "histserve_seeded_" + "unread_total"
	seeds := []struct {
		analyzer, file string
		old, new       string // new replaces the one occurrence of old
		at             string // the part of new whose line carries the finding
	}{
		{"mutexguard", server,
			"func (s *Server) cmdRole(*lineserver.Request) string { return s.roleLine() }",
			"func (s *Server) cmdRole(*lineserver.Request) string {\n\tseededCube := s.cube\n\t_ = seededCube\n\treturn s.roleLine()\n}",
			"seededCube := s.cube"},
		{"deferunlock", server,
			"func (s *Server) cmdCheckpoint(*lineserver.Request) string { return s.checkpointNow() }",
			"func (s *Server) cmdCheckpoint(rq *lineserver.Request) string {\n\ts.mu.Lock() // seeded leak\n\tif len(rq.Fields) > 1 {\n\t\treturn \"ERR\"\n\t}\n\ts.mu.Unlock()\n\treturn s.checkpointNow()\n}",
			"s.mu.Lock() // seeded leak"},
		{"lockorder", server,
			"func (s *Server) cmdVersion(*lineserver.Request) string {\n",
			"func (s *Server) cmdVersion(*lineserver.Request) string {\n\ts.hub.mu.Lock()\n\ts.mu.Lock() // seeded inversion\n\ts.mu.Unlock()\n\ts.hub.mu.Unlock()\n" +
				"\ts.mu.Lock()\n\ts.hub.mu.Lock() // seeded order\n\ts.hub.mu.Unlock()\n\ts.mu.Unlock()\n",
			"s.mu.Lock() // seeded inversion"},
		{"appendbeforeapply", server,
			"\tt := int64(math.MaxInt64)\n",
			"\tt := int64(math.MaxInt64)\n\ts.mu.Lock()\n\tseededErr := s.cube.ApplyOp(context.Background(), core.Op{})\n\ts.mu.Unlock()\n\t_ = seededErr\n",
			"s.cube.ApplyOp(context.Background(), core.Op{})"},
		{"appendbeforeapply", server,
			"\tvar minLSN uint64\n",
			"\tvar minLSN uint64\n\ts.mu.Lock()\n\tseededInsert := s.cube.Insert(1, []int{0, 0}, 1)\n\ts.mu.Unlock()\n\t_ = seededInsert\n",
			"s.cube.Insert(1, []int{0, 0}, 1)"},
		{"coordnarrow", server,
			"\t\tc, ok := dims.ToCoord(v)\n",
			"\t\tseededCoord := int(v)\n\t\t_ = seededCoord\n\t\tc, ok := dims.ToCoord(v)\n",
			"seededCoord := int(v)"},
		{"nofloateq", server,
			"\tif math.IsNaN(val) || math.IsInf(val, 0) {\n",
			"\tif val == 0.5 || math.IsNaN(val) || math.IsInf(val, 0) {\n",
			"val == 0.5"},
		{"errwrap", server,
			"\tif err := s.saveSnapshot(rq.Fields[1]); err != nil {\n\t\treturn \"ERR \" + err.Error()\n",
			"\tif err := s.saveSnapshot(rq.Fields[1]); err != nil {\n\t\treturn \"ERR \" + fmt.Errorf(\"seeded save: %v\", err).Error()\n",
			"seeded save: %v"},
		{"metricname", server,
			"\tst := s.statsSnapshot()\n",
			"\tst := s.statsSnapshot()\n\ts.Reg.NewCounter(\"BadName-total\", \"seeded\")\n",
			"BadName-total"},
		{"metricname", server,
			"\ts.link.Metrics = s.Metrics\n",
			"\ts.Reg.NewCounter(\"" + unread + "\", \"seeded\")\n\ts.link.Metrics = s.Metrics\n",
			unread},
		{"importfence", "internal/core/core.go",
			"\t\"histcube/internal/appendcube\"\n",
			"\t\"histcube/internal/appendcube\"\n\t_ \"histcube/internal/paper/framework\"\n",
			"histcube/internal/paper/framework"},
		{"importfence", "internal/oracle/oracle.go",
			"import \"strings\"\n",
			"import (\n\t\"strings\"\n\n\t_ \"histcube/internal/dims\"\n)\n",
			"histcube/internal/dims"},
		{"deadexport", "internal/core/core.go",
			"// Retire materialises every historic slice completely",
			"// SeededDead is exported and called by nothing.\nfunc SeededDead() {}\n\n// Retire materialises every historic slice completely",
			"func SeededDead() {}"},
	}

	dir := copyModule(t)
	sources := make(map[string]string)
	for _, s := range seeds {
		src, ok := sources[s.file]
		if !ok {
			data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(s.file)))
			if err != nil {
				t.Fatal(err)
			}
			src = string(data)
		}
		if strings.Count(src, s.old) != 1 {
			t.Fatalf("%s seed: %d occurrences of %q in %s, want 1 (the handler moved: re-aim the seed)", s.analyzer, strings.Count(src, s.old), s.old, s.file)
		}
		sources[s.file] = strings.Replace(src, s.old, s.new, 1)
	}
	for file, src := range sources {
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(file)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	stdout, stderr, exit := runHistlint(t, buildHistlint(t), dir)
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	for _, s := range seeds {
		src := sources[s.file]
		if strings.Count(src, s.at) != 1 {
			t.Fatalf("%s seed: marker %q is not unique in %s", s.analyzer, s.at, s.file)
		}
		line := 1 + strings.Count(src[:strings.Index(src, s.at)], "\n")
		head := filepath.Join(dir, filepath.FromSlash(s.file)) + ":" + strconv.Itoa(line) + ":"
		found := false
		for _, l := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(l, head) && strings.Contains(l, ": "+s.analyzer+": ") {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s finding at %s:%d for the seeded violation", s.analyzer, s.file, line)
		}
	}
	// perf.New and (*perf.Recorder).Record are reached only from
	// benchmark/probes.go, a nested module: a finding on them means the
	// second root of uses dropped out of the program.
	if strings.Contains(stdout, "deadexport: perf.New ") || strings.Contains(stdout, "(*perf.Recorder).Record ") {
		t.Error("deadexport reports perf.New or Recorder.Record: benchmark/ no longer counts as a user")
	}
	// Every real family has its reader in a test or in benchmark/, so
	// the seed is the one family reported unread.
	if n := strings.Count(stdout, "is read by name in no test"); n != 1 {
		t.Errorf("%d families reported unread, want only the seeded one", n)
	}
	if t.Failed() {
		t.Logf("histlint said:\n%s", stdout)
	}
}

// TestReadmeListsTheAnalyzers keeps README's "Static analysis" section
// in step with the suite: its table names exactly the analyzers
// `histlint -list` prints, and its "enforces N invariants" sentence
// counts them.
func TestReadmeListsTheAnalyzers(t *testing.T) {
	stdout, _, exit := runHistlint(t, buildHistlint(t), ".", "-list")
	if exit != 0 {
		t.Fatalf("histlint -list exit = %d", exit)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Static analysis\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			table = append(table, name[:strings.Index(name, "`")])
		}
	}
	sort.Strings(listed)
	sort.Strings(table)
	if strings.Join(table, " ") != strings.Join(listed, " ") {
		t.Errorf("README table lists %v, histlint -list prints %v", table, listed)
	}
	words := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten", "eleven", "twelve"}
	if len(listed) >= len(words) {
		t.Fatalf("%d analyzers: extend the number words", len(listed))
	}
	if want := "enforces " + words[len(listed)] + " invariants"; !strings.Contains(strings.Join(strings.Fields(section), " "), want) {
		t.Errorf("README's Static analysis section does not say %q", want)
	}
}
