// Command histproxy routes the line protocol across a time-range-sharded
// histserve fleet (see internal/histproxy for the proxy, its protocol and
// flags). It exits 2 on a bad or missing flag, 1 when it cannot listen,
// and 0 after a SIGINT/SIGTERM shutdown.
//
//	histproxy -addr :7071 -dims 16,16 -shards "h1:7072=0-999,hot:7074=1000-" [-seal-historic]
package main

import (
	"flag"
	"log/slog"
	"os"
	"time"

	"histcube/internal/histproxy"
	"histcube/internal/lineserver"
)

func main() {
	var (
		cfg    histproxy.Config
		shared = lineserver.RegisterFlags(flag.CommandLine, ":7071")
	)
	flag.StringVar(&cfg.Dims, "dims", "", "comma-separated dimension sizes, as passed to the shards (only the count matters to the proxy)")
	flag.StringVar(&cfg.Shards, "shards", "", "shard map: addr=lo-hi,...,addr=lo- (contiguous inclusive time ranges; the last is the open-ended hot shard)")
	flag.DurationVar(&cfg.ShardTimeout, "shard-timeout", 2*time.Second, "per-shard round-trip deadline inside a fan-out; keep well under -request-timeout so one dead shard degrades the answer instead of timing the request out")
	flag.IntVar(&cfg.BreakerThreshold, "breaker-threshold", 3, "consecutive transport failures that open a shard's circuit breaker")
	flag.DurationVar(&cfg.ProbeEvery, "probe-every", 500*time.Millisecond, "member-state interval: every tick one ROLE to every shard member closes the breakers of members that answer, fails over a down primary and decides whether followers serve reads; must be > 0")
	flag.DurationVar(&cfg.HedgeAfter, "hedge-after", 30*time.Millisecond, "duplicate a read to the next replica-set member after this long without an answer (single-member shards never hedge); 0 disables hedging")
	flag.BoolVar(&cfg.SealHistoric, "seal-historic", false, "at startup, demote every closed-range shard with SEAL <hi> so misrouted mutations cannot land in owned history")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	p, err := histproxy.New(cfg)
	if err != nil {
		logger.Error("bad flags", "err", err)
		os.Exit(2)
	}
	stop, err := shared.Apply(&p.Server, logger)
	if err != nil {
		os.Exit(1)
	}
	defer stop()
	p.Start()
	if err := p.Run(*shared.Addr); err != nil {
		os.Exit(1)
	}
	p.Close()
	logger.Info("shutdown complete")
}
