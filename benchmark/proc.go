package main

// Server processes: launching the real histserve/histproxy binaries on
// loopback, the topologies the workloads and the ladder need, and the
// outside view of a process (/proc CPU and memory, /metrics, /readyz).

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	cubeDims     = "64,64"
	launchWait   = 30 * time.Second
	roleServe    = "histserve" // takes writes; core/wal counters are read here
	roleFollower = "follower"
	roleProxy    = "histproxy"
)

var (
	listenRE  = regexp.MustCompile(`msg=listening addr=(\S+)`)
	metricsRE = regexp.MustCompile(`msg="metrics listening" addr=(\S+)`)
)

// env is what every launch shares: where the binaries are, the scratch
// directory all data dirs and logs live under, and whether servers get
// the traced run's profiling flags.
type env struct {
	binDir string
	tmp    string
	traced bool
	ref    *reference // the calibration bursts' fixed work

	mu    sync.Mutex
	live  map[*proc]struct{} // guarded by mu; killed by cleanup on any exit path
	dirSq int                // guarded by mu
}

func newEnv(binDir, scratch string) (*env, error) {
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory under %s: %w", scratch, err)
	}
	ref, err := startReference(generatorConns())
	if err != nil {
		_ = os.RemoveAll(tmp) // best effort, as in cleanup
		return nil, fmt.Errorf("starting the calibration reference: %w", err)
	}
	return &env{binDir: binDir, tmp: tmp, ref: ref, live: make(map[*proc]struct{})}, nil
}

// cleanup kills every live child and removes the run directory.
func (e *env) cleanup() {
	e.ref.stop()
	e.mu.Lock()
	procs := make([]*proc, 0, len(e.live))
	for p := range e.live {
		procs = append(procs, p)
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	_ = os.RemoveAll(e.tmp) // best effort: the scratch directory is ignored and emptied by the next run
}

func (e *env) newDir(prefix string) (string, error) {
	e.mu.Lock()
	e.dirSq++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", prefix, e.dirSq))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

type proc struct {
	e           *env
	role        string
	bin         string
	args        []string
	log         string
	cmd         *exec.Cmd
	done        chan struct{} // closed once cmd.Wait returned
	addr        string
	metricsAddr string
}

// start launches bin with ephemeral protocol and metrics ports and
// waits for both addresses to appear in its log.
func (e *env) start(role, bin string, args ...string) (*proc, error) {
	dir, err := e.newDir(role)
	if err != nil {
		return nil, err
	}
	p := &proc{e: e, role: role, bin: filepath.Join(e.binDir, bin), log: filepath.Join(dir, "stderr.log")}
	p.args = append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-dims", cubeDims}, args...)
	if e.traced {
		p.args = append(p.args, "-mutex-profile-fraction", "1", "-runtime-metrics-every", "1s")
	}
	return p, p.launch()
}

func (p *proc) launch() error {
	logf, err := os.Create(p.log)
	if err != nil {
		return err
	}
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Stderr = logf
	// The children die with the benchmark even when it is SIGKILLed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = p.cmd.Start()
	_ = logf.Close() // the child holds its own descriptor; nothing was written through ours
	if err != nil {
		return fmt.Errorf("starting %s: %w", p.bin, err)
	}
	p.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		close(done)
	}(p.cmd, p.done)
	p.e.mu.Lock()
	p.e.live[p] = struct{}{}
	p.e.mu.Unlock()

	p.addr, p.metricsAddr = "", ""
	deadline := time.Now().Add(launchWait)
	for {
		out, err := os.ReadFile(p.log)
		if err != nil {
			p.stop()
			return err
		}
		if m := metricsRE.FindSubmatch(out); m != nil {
			p.metricsAddr = string(m[1])
		}
		if m := listenRE.FindSubmatch(out); m != nil {
			p.addr = string(m[1])
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s %s exited before listening:\n%s", p.bin, strings.Join(p.args, " "), out)
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return fmt.Errorf("%s did not listen within %s:\n%s", p.bin, launchWait, out)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop SIGKILLs and reaps the child.
func (p *proc) stop() {
	if p == nil || p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
	p.e.mu.Lock()
	delete(p.e.live, p)
	p.e.mu.Unlock()
}

// restart SIGKILLs the server, starts it again on the same data
// directory and returns the time from the kill until /readyz answers
// 200 (process start, checkpoint load and log replay).
func (p *proc) restart() (time.Duration, error) {
	p.stop()
	began := time.Now()
	if err := p.launch(); err != nil {
		return 0, err
	}
	deadline := began.Add(launchWait)
	for {
		resp, err := http.Get("http://" + p.metricsAddr + "/readyz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(began), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("restarted %s not ready within %s", p.role, launchWait)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleet is one launched topology. Clients talk to entry; writer is the
// histserve that owns the open frontier (entry itself without a proxy).
type fleet struct {
	procs  []*proc
	entry  *proc
	writer *proc
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

func (f *fleet) byRole(role string) []*proc {
	var out []*proc
	for _, p := range f.procs {
		if p.role == role {
			out = append(out, p)
		}
	}
	return out
}

// shardOpts shapes one histserve of a topology.
type shardOpts struct {
	fsync     string // "" = in-memory (no -data-dir)
	followers int
	minAcks   int
}

func (e *env) serveArgs(o shardOpts) ([]string, error) {
	args := []string{"-ooo"}
	if o.fsync != "" {
		dir, err := e.newDir("data")
		if err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dir, "-fsync", o.fsync)
	}
	if o.minAcks > 0 {
		args = append(args, "-repl-min-acks", strconv.Itoa(o.minAcks))
	}
	return args, nil
}

// launchSingle starts one histserve.
func (e *env) launchSingle(o shardOpts) (*fleet, error) {
	args, err := e.serveArgs(o)
	if err != nil {
		return nil, err
	}
	p, err := e.start(roleServe, "histserve", args...)
	if err != nil {
		return nil, err
	}
	return &fleet{procs: []*proc{p}, entry: p, writer: p}, nil
}

// launchProxied starts one or two histserve shards (each with
// o.followers WAL-shipping followers) behind a histproxy. With two, the
// first owns times 0..split and the second everything after, and so
// the live frontier.
func (e *env) launchProxied(shards int, split int64, o shardOpts) (*fleet, error) {
	f := &fleet{}
	var spec []string
	for i := 0; i < shards; i++ {
		args, err := e.serveArgs(o)
		if err != nil {
			f.stop()
			return nil, err
		}
		primary, err := e.start(roleServe, "histserve", args...)
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		f.procs = append(f.procs, primary)
		f.writer = primary // the last shard is open-ended
		members := primary.addr
		for r := 0; r < o.followers; r++ {
			fargs, err := e.serveArgs(shardOpts{fsync: o.fsync})
			if err != nil {
				f.stop()
				return nil, err
			}
			fol, err := e.start(roleFollower, "histserve", append(fargs, "-follow", primary.addr)...)
			if err != nil {
				f.stop()
				return nil, fmt.Errorf("follower of shard %d: %w", i, err)
			}
			f.procs = append(f.procs, fol)
			members += "|" + fol.addr
		}
		switch {
		case shards == 1:
			spec = append(spec, members+"=0-")
		case i == 0:
			spec = append(spec, fmt.Sprintf("%s=0-%d", members, split))
		default:
			spec = append(spec, fmt.Sprintf("%s=%d-", members, split+1))
		}
	}
	proxy, err := e.start(roleProxy, "histproxy", "-shards", strings.Join(spec, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append(f.procs, proxy)
	f.entry = proxy
	if o.followers > 0 {
		if err := f.waitFollowers(); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// waitFollowers blocks until every primary reports its followers
// attached, so the first semi-sync insert does not wait out a dial.
func (f *fleet) waitFollowers() error {
	for _, p := range f.byRole(roleServe) {
		c, err := dial(p.addr)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(launchWait)
		for {
			resp, err := c.roundTrip("ROLE")
			if err != nil {
				c.close()
				return err
			}
			if !strings.Contains(resp, "followers=0") {
				break
			}
			if time.Now().After(deadline) {
				c.close()
				return fmt.Errorf("no follower attached to %s within %s (%s)", p.addr, launchWait, resp)
			}
			time.Sleep(2 * time.Millisecond)
		}
		c.close()
	}
	return nil
}

// launchWorkload starts the topology a workload runs against.
func (e *env) launchWorkload(w *workloadSpec) (*fleet, error) {
	switch w.Topo {
	case topoMemory:
		return e.launchSingle(shardOpts{})
	case topoDurable:
		return e.launchSingle(shardOpts{fsync: "always"})
	default:
		return e.launchProxied(2, int64(w.SeedSlices/2), shardOpts{fsync: "always", followers: 1, minAcks: 1})
	}
}

// clockTick is the kernel's USER_HZ, which /proc/<pid>/stat counts in;
// it is 100 on every Linux the Go toolchain targets.
const clockTick = 100

// cpuSeconds is the user+system CPU time a process has used.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after it.
	rest := raw[strings.LastIndexByte(string(raw), ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuByRole sums cpuSeconds over the fleet's processes per role.
func (f *fleet) cpuByRole() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range f.procs {
		s, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[p.role] += s
	}
	return out, nil
}

// cpuSeconds is the CPU time of all the fleet's processes.
func (f *fleet) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		s, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

func (f *fleet) peakRSSMiB() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		v, err := peakRSSMiB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// scrape sums the Prometheus series of every process with the given
// role, keyed by series name including labels. The per-shard label of
// histproxy_hedged_reads is dropped so the series adds up.
func (f *fleet) scrape(role string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range f.byRole(role) {
		resp, err := http.Get("http://" + p.metricsAddr + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			sp := strings.LastIndexByte(line, ' ')
			if sp <= 0 || line[0] == '#' {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			name := line[:sp]
			if strings.HasPrefix(name, "histproxy_hedged_reads{") {
				name = "histproxy_hedged_reads"
			}
			out[name] += v
		}
		err = sc.Err()
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fsType names the filesystem holding path (from /proc/mounts, longest
// matching mount point), for the run's meta block.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
