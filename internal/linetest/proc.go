package linetest

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// binDir holds the server binaries Start builds; Main makes it before
// the first test and removes it after the last.
var binDir string

// builds maps a command's import path to its *binary, built once per
// test binary.
var builds sync.Map

type binary struct {
	once sync.Once
	path string
	out  []byte // go build's output
	err  error
}

// Main runs a test binary's tests — call it from TestMain, as
// os.Exit(linetest.Main(m)) — and then removes the binaries Start built
// for them.
//
//histlint:ignore deadexport test seam: TestMain of cmd/histserve and cmd/histproxy
func Main(m *testing.M) int {
	dir, err := os.MkdirTemp("", "linetest-bin-")
	if err != nil {
		panic(err)
	}
	binDir = dir
	defer os.RemoveAll(dir)
	return m.Run()
}

// build returns the binary of the command pkg, built on first use.
func build(t *testing.T, pkg string) string {
	t.Helper()
	if binDir == "" {
		t.Fatal("linetest.Start needs the test binary's TestMain to call linetest.Main")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH; cannot build the server binaries")
	}
	v, _ := builds.LoadOrStore(pkg, new(binary))
	b := v.(*binary)
	b.once.Do(func() {
		b.path = filepath.Join(binDir, filepath.Base(pkg))
		b.out, b.err = exec.Command("go", "build", "-o", b.path, pkg).CombinedOutput()
	})
	if b.err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, b.err, b.out)
	}
	return b.path
}

var (
	listenRE  = regexp.MustCompile(`msg=listening addr=([^ ]+)`)
	metricsRE = regexp.MustCompile(`msg="metrics listening" addr=([^ ]+)`)
)

// Proc is one server binary, histserve or histproxy, run as a child
// process.
type Proc struct {
	Addr    string   // where it serves the line protocol
	Metrics string   // where it serves /metrics; "" without -metrics
	Boot    []string // its log through the line that named Addr
	Cmd     *exec.Cmd

	exited chan struct{} // closed once the log ended and the child was reaped
	log    []string      // its whole log; set before exited closes
	err    error         // how it exited; set before exited closes
}

// Start runs the command pkg (an import path, built once per test
// binary) with -addr 127.0.0.1:0 and args — an -addr in args wins — and
// returns once its log names the address it listens on. The test's
// cleanup kills and reaps it, however the test ends.
//
//histlint:ignore deadexport test seam: the binary drills of cmd/histserve and cmd/histproxy
func Start(t *testing.T, pkg string, args ...string) *Proc {
	t.Helper()
	cmd := exec.Command(build(t, pkg), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &Proc{Cmd: cmd, exited: make(chan struct{})}
	booted := make(chan []string, 1)
	go p.collect(stderr, booted)
	t.Cleanup(func() { _, _ = p.Stop(t, os.Kill) })
	select {
	case p.Boot = <-booted:
	case <-p.exited:
		t.Fatalf("%s exited before listening (%v); its log:\n%s", pkg, p.err, strings.Join(p.log, "\n"))
	case <-time.After(30 * time.Second):
		log, _ := p.Stop(t, os.Kill)
		t.Fatalf("%s named no listen address in 30 s; its log:\n%s", pkg, log)
	}
	for _, line := range p.Boot {
		if m := metricsRE.FindStringSubmatch(line); m != nil {
			p.Metrics = m[1]
		}
		if m := listenRE.FindStringSubmatch(line); m != nil {
			p.Addr = m[1]
		}
	}
	return p
}

// collect keeps the child's log, hands booted the lines through the
// one that names the listen address, and once the log ends reaps the
// child — in that order, because Wait closes the pipe and would race
// the reader out of the last lines.
func (p *Proc) collect(stderr io.Reader, booted chan<- []string) {
	var log []string
	for sc := bufio.NewScanner(stderr); sc.Scan(); {
		log = append(log, sc.Text())
		if booted != nil && listenRE.MatchString(sc.Text()) {
			booted <- append([]string(nil), log...)
			booted = nil
		}
	}
	_, _ = io.Copy(io.Discard, stderr) // past a line too long to scan, if any
	p.log, p.err = log, p.Cmd.Wait()
	close(p.exited)
}

// Stop sends the child sig — os.Kill for a crash, syscall.SIGTERM for
// a graceful shutdown — unless it has exited already, and waits for
// it to exit; one that is still running 30 s later is killed and fails
// the test. It returns the child's whole log and how it exited.
func (p *Proc) Stop(t *testing.T, sig os.Signal) (string, error) {
	t.Helper()
	select {
	case <-p.exited:
	default:
		_ = p.Cmd.Process.Signal(sig) // it may have exited meanwhile: Wait says how
		select {
		case <-p.exited:
		case <-time.After(30 * time.Second):
			_ = p.Cmd.Process.Kill()
			<-p.exited
			t.Fatalf("%s was still running 30 s after %v", p.Cmd.Path, sig)
		}
	}
	return strings.Join(p.log, "\n"), p.err
}

// WritePrometheus copies the child's /metrics to w, so MetricValue
// reads a series off it as off a registry.
func (p *Proc) WritePrometheus(w io.Writer) error {
	if p.Metrics == "" {
		return errors.New("linetest: the child was started without -metrics")
	}
	resp, err := http.Get("http://" + p.Metrics + "/metrics")
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // the body was read to its end
	_, err = io.Copy(w, resp.Body)
	return err
}
