package main

// The latency families on /metrics: histserve_request_seconds{cmd}
// (the serving core times every served request once) and
// histserve_stage_seconds{stage}; and README naming exactly the
// families the binary registers.

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"histcube/internal/histserve"
	"histcube/internal/lineserver"
)

// TestCmdLatencyMetrics checks histserve_request_seconds on /metrics:
// one series per command-table label, and a served INS counted in its
// own series and, through the span the core opened, in the cube_insert
// stage.
func TestCmdLatencyMetrics(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	addr := serveOn(t, srv)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })

	c := dial(t, addr)
	if got := c.cmd(t, "INS 1 2 3 4"); got != "OK" {
		t.Fatalf("INS -> %q", got)
	}

	resp, err := http.Get("http://" + mln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, label := range srv.Labels() {
		if want := fmt.Sprintf(`histserve_request_seconds_count{cmd=%q} `, label); !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, want := range []string{
		`histserve_request_seconds_count{cmd="INS"} 1`,
		`histserve_request_seconds_count{cmd="QRY"} 0`,
		`histserve_stage_seconds_count{stage="cube_insert"} 1`,
		`histserve_stage_seconds_count{stage="cube_query"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestOutOfOrderInsertRaisesGd: histcube_ooo_pending is the size of
// Sec. 2.5's G_d, the buffer of updates older than the latest instance.
// On an -ooo server an out-of-order INS lands there and raises it by one.
func TestOutOfOrderInsertRaisesGd(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", true)
	for _, line := range []string{"INS 5 1 1 1", "INS 6 2 2 1"} {
		if resp, _ := srv.Do(0, line); resp != "OK" {
			t.Fatalf("%s -> %q", line, resp)
		}
	}
	before := metricValue(t, srv, "histcube_ooo_pending")
	if resp, _ := srv.Do(0, "INS 3 1 1 1"); resp != "OK" {
		t.Fatalf("out-of-order INS -> %q", resp)
	}
	if got := metricValue(t, srv, "histcube_ooo_pending"); got != before+1 {
		t.Fatalf("histcube_ooo_pending = %d after an out-of-order INS, want %d", got, before+1)
	}
}

// TestReadmeNamesOnlyRealMetrics renders /metrics of a server with
// everything that registers families switched on — durable, -fault-spec
// armed, the runtime collector sampled once — and requires README to name
// exactly the histserve_*/histcube_* families it registers.
func TestReadmeNamesOnlyRealMetrics(t *testing.T) {
	cfg := quietConfig("8,8", "sum", false)
	cfg.DataDir, cfg.CheckpointEvery = t.TempDir(), 0
	srv := quietServer(t, cfg)
	fs := flag.NewFlagSet("histserve", flag.ContinueOnError)
	shared := lineserver.RegisterFlags(fs, "127.0.0.1:0")
	if err := fs.Parse([]string{"-fault-spec", "serve.dispatch:err@1000000", "-runtime-metrics-every", "1h"}); err != nil {
		t.Fatal(err)
	}
	stop, err := shared.Apply(&srv.Server, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var exposition strings.Builder
	if err := srv.Reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := readmeFamilies(exposition.String(), string(readme), regexp.MustCompile(`^hist(serve|cube)_`))
	if len(missing) > 0 {
		t.Errorf("registered but not named in README: %s", strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("named in README but not registered: %s", strings.Join(stale, ", "))
	}
}

// metricValue reads one series off srv's registry, its labels spelled
// as /metrics renders them (internal/histserve's tests have its twin).
func metricValue(t *testing.T, srv *histserve.Server, name string) int64 {
	t.Helper()
	var b strings.Builder
	if err := srv.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(n)
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// readmeFamilies compares the families of a rendered exposition that
// match prefix with the metric names README spells out: registered
// families README never names, and names README gives that are no
// family (a histogram's _bucket/_sum/_count series count as the family;
// a trailing "_*" is a wildcard, which names nothing).
func readmeFamilies(exposition, readme string, prefix *regexp.Regexp) (missing, stale []string) {
	registered := make(map[string]bool)
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && prefix.MatchString(f[2]) {
			registered[f[2]] = true
		}
	}
	named := make(map[string]bool)
	for _, m := range regexp.MustCompile(`hist(serve|cube|proxy)_[a-z0-9_]*[a-z0-9*]`).FindAllString(readme, -1) {
		if !prefix.MatchString(m) || strings.HasSuffix(m, "*") {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(m, suffix); base != m && registered[base] {
				m = base
			}
		}
		named[m] = true
	}
	for name := range registered {
		if !named[name] {
			missing = append(missing, name)
		}
	}
	for name := range named {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	return missing, stale
}
