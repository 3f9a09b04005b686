package histproxy

// Proxies built in process for the tests that read the proxy's own
// state; cmd/histproxy's proxy_test.go has their twins for the tests
// that need no more than main does.

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"testing"
	"time"

	"histcube/internal/fleettest"
	"histcube/internal/trace"
)

// testProbeEvery is the in-process proxies' -probe-every: short, so
// rejoin and failover tests run in milliseconds.
const testProbeEvery = 50 * time.Millisecond

// testConfig is the Config the in-process proxies start from: -dims 8,8
// over spec, a one-failure breaker, no hedging, a 1 s -shard-timeout.
func testConfig(spec string) Config {
	return Config{Dims: "8,8", Shards: spec, ShardTimeout: time.Second, BreakerThreshold: 1, ProbeEvery: testProbeEvery}
}

// startConfigured builds a proxy from cfg as main does, quietly, with a
// slow log that keeps every query, and returns it after Start.
func startConfigured(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	p.Slow = trace.NewSlowLog(32, 0)
	p.ReqTimeout = 5 * time.Second
	t.Cleanup(p.Close)
	p.Start()
	return p
}

// buildProxy starts an in-process proxy over spec with testConfig.
func buildProxy(t *testing.T, spec string) *Proxy {
	t.Helper()
	return startConfigured(t, testConfig(spec))
}

// buildProxyWith is buildProxy with the given -hedge-after and
// -shard-timeout.
func buildProxyWith(t *testing.T, spec string, hedgeAfter, shardTimeout time.Duration) *Proxy {
	t.Helper()
	cfg := testConfig(spec)
	cfg.HedgeAfter, cfg.ShardTimeout = hedgeAfter, shardTimeout
	return startConfigured(t, cfg)
}

// serveProxy serves p on a loopback listener.
func serveProxy(t *testing.T, p *Proxy) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go p.Serve(ln)
	return ln.Addr().String()
}

func startProxy(t *testing.T, spec string) (addr string, p *Proxy) {
	t.Helper()
	p = buildProxy(t, spec)
	return serveProxy(t, p), p
}

// threeShards is a map over three scripted fakes: 0-99, 100-199, 200-.
func threeShards(t *testing.T) (spec string, shards []*fleettest.FakeShard) {
	t.Helper()
	a, b, c := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	spec = fmt.Sprintf("%s=0-99,%s=100-199,%s=200-", a.Addr, b.Addr, c.Addr)
	return spec, []*fleettest.FakeShard{a, b, c}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 5 s for %s", what)
		}
	}
}
