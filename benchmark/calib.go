package main

// Machine-speed calibration. This benchmark runs on a few vCPUs of a
// shared host whose speed drifts by tens of percent over minutes: the
// same binaries answered 37 000 converged queries per second in one
// quarter-hour and 27 000 in the next, with CPU seconds per op moving
// in step, and ten runs of one commit spread 15-40% (distance between
// quartiles over the median). Sessions a few seconds apart agree within
// 2-5%, so the drift is slow, and it is common to everything the VM
// does. So every second of load is bracketed by two short bursts of
// fixed reference work that shares no code with the servers: a compute
// loop, a loopback ping-pong against an echo goroutine in this process,
// and the same ping-pong against an echo child process. A burst's three
// times, each divided by its time on the reference machine, multiply
// into one speed index (geometric mean; 1.0 = reference, 1.3 = this
// second ran 30% slower), and the bounded time metrics are reported at
// reference-machine speed: latencies and CPU seconds divided by the
// index of their slice, throughput multiplied by it. The same runs then
// spread 3-9% (README.md, "Measured spread"). A change to the servers
// moves the load and not the reference, so it shows undiminished; the
// raw numbers stay in the per-layer list as raw.*.

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Burst sizes, and what they take on the reference machine: this
// repository's 2-vCPU build VM in a quiet hour. One burst is ~0.2 s.
const (
	spinIters = 20_000_000 // per connection
	echoTrips = 5000       // per connection, in-process echo
	farTrips  = 3000       // per connection, echo child process

	nominalSpinS = 0.0312
	nominalEchoS = 0.0705
	nominalFarS  = 0.105
)

// refServerArg makes this binary (or the test binary) the echo child.
const refServerArg = "refserver"

// serveEcho answers every line on every connection with itself.
func serveEcho(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			defer c.Close()
			br := bufio.NewReader(c)
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				if _, err := c.Write(line); err != nil {
					return
				}
			}
		}()
	}
}

// refServerMain is the echo child: it prints its address and serves
// until it is killed (or, by Pdeathsig, until the benchmark dies).
func refServerMain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	fmt.Println(ln.Addr())
	serveEcho(ln)
}

// reference is the fixed work a burst times.
type reference struct {
	local net.Listener
	child *exec.Cmd
	near  []*wire // to the echo goroutine
	far   []*wire // to the echo child
}

func startReference(conns int) (r *reference, err error) {
	r = &reference{}
	defer func() {
		if err != nil {
			r.stop()
		}
	}()
	if r.local, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go serveEcho(r.local)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r.child = exec.Command(exe, refServerArg)
	r.child.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := r.child.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := r.child.Start(); err != nil {
		r.child = nil
		return nil, fmt.Errorf("starting the echo child: %w", err)
	}
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("echo child did not print its address: %w", err)
	}
	for i := 0; i < conns; i++ {
		n, err := dial(r.local.Addr().String())
		if err != nil {
			return nil, err
		}
		r.near = append(r.near, n)
		f, err := dial(strings.TrimSpace(addr))
		if err != nil {
			return nil, err
		}
		r.far = append(r.far, f)
	}
	return r, nil
}

// stop closes the connections and kills and reaps the echo child.
func (r *reference) stop() {
	if r == nil {
		return
	}
	for _, w := range append(r.near, r.far...) {
		w.close()
	}
	if r.local != nil {
		_ = r.local.Close()
	}
	if r.child != nil {
		_ = r.child.Process.Kill() // already-exited is fine
		_ = r.child.Wait()         // a killed child's status carries nothing
	}
}

// speed is one burst: the seconds each piece of reference work took.
type speed struct{ spin, echo, far float64 }

// index is how much slower than the reference machine the burst ran.
func (s speed) index() float64 {
	return math.Cbrt(s.spin / nominalSpinS * s.echo / nominalEchoS * s.far / nominalFarS)
}

// between is the speed of the interval two bursts bracket.
func between(a, b speed) speed {
	return speed{(a.spin + b.spin) / 2, (a.echo + b.echo) / 2, (a.far + b.far) / 2}
}

var spinSink uint64

// spin mixes a counter into a 512 KiB table, once per connection at
// the same time, so it loads as many CPUs as the workload's generator.
func spin(conns int) float64 {
	var wg sync.WaitGroup
	began := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := make([]uint64, 1<<16)
			x := uint64(g + 1)
			for i := 0; i < spinIters; i++ {
				x += 0x9e3779b97f4a7c15
				z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				table[z&(1<<16-1)] += z
			}
			spinSink = table[x&(1<<16-1)]
		}()
	}
	wg.Wait()
	return time.Since(began).Seconds()
}

// pingPong sends a query-sized line over every connection at once,
// trips times each, waiting for each echo: the workloads' own closed
// loop, with nothing behind the socket.
func pingPong(ws []*wire, trips int) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	began := time.Now()
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			line := []byte("QRY 12 345 10 11 40 50\n")
			for n := 0; n < trips && errs[i] == nil; n++ {
				if errs[i] = w.send(line); errs[i] == nil {
					_, errs[i] = w.reply()
				}
			}
		}()
	}
	wg.Wait()
	took := time.Since(began).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference ping-pong: %w", err)
		}
	}
	return took, nil
}

func (r *reference) burst() (speed, error) {
	s := speed{spin: spin(len(r.near))}
	var err error
	if s.echo, err = pingPong(r.near, echoTrips); err != nil {
		return s, err
	}
	s.far, err = pingPong(r.far, farTrips)
	return s, err
}
