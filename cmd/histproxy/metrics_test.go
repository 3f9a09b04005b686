package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"histcube/internal/histproxy"
	"histcube/internal/lineserver"
	"histcube/internal/linetest"
)

// TestProxyRequestSeconds: histproxy_request_seconds has one series per
// command-table label, and a served window is counted in it line by line.
func TestProxyRequestSeconds(t *testing.T) {
	spec, _ := threeMembers(t)
	addr, p := startProxy(t, spec)
	got := linetest.Dial(t, addr).SendAll(t, "INS 10 1 1 5\nQRY 0 300 0 0 7 7\nINS 150 1 1 2\n", 3)
	if strings.Join(got, "|") != "OK|5|OK" {
		t.Fatalf("replies = %q", got)
	}
	var b strings.Builder
	if err := p.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, label := range p.Labels() {
		if want := fmt.Sprintf(`histproxy_request_seconds_count{cmd=%q} `, label); !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, want := range []string{`histproxy_request_seconds_count{cmd="INS"} 2`, `histproxy_request_seconds_count{cmd="QRY"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestReadmeNamesOnlyRealMetrics renders the proxy's /metrics with
// -fault-spec armed and the runtime collector sampled once, and requires
// README to name exactly the histproxy_* families it registers.
func TestReadmeNamesOnlyRealMetrics(t *testing.T) {
	spec, _ := threeMembers(t)
	// Configured as main configures it, before Start starts the loop.
	p, err := histproxy.New(testConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	fs := flag.NewFlagSet("histproxy", flag.ContinueOnError)
	shared := lineserver.RegisterFlags(fs, "127.0.0.1:0")
	if err := fs.Parse([]string{"-fault-spec", "proxy.dial:err@1000000", "-runtime-metrics-every", "1h"}); err != nil {
		t.Fatal(err)
	}
	stop, err := shared.Apply(&p.Server, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var exposition strings.Builder
	if err := p.Reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := readmeFamilies(exposition.String(), string(readme), regexp.MustCompile(`^histproxy_`))
	if len(missing) > 0 {
		t.Errorf("registered but not named in README: %s", strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("named in README but not registered: %s", strings.Join(stale, ", "))
	}
}

// readmeFamilies (cmd/histserve's twin) compares the families of a
// rendered exposition that match prefix with the metric names README
// spells out: registered families README never names, and names README
// gives that are no family (a histogram's _bucket/_sum/_count series
// count as the family; a trailing "_*" is a wildcard, naming nothing).
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
