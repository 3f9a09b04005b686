// Command histserve serves a histcube over TCP (see internal/histserve
// for the server, its protocol and flags). It exits 1 on any startup
// error and 0 after a graceful SIGINT/SIGTERM shutdown.
//
//	histserve -addr :7070 -dims 16,16 -op sum [-ooo] [-metrics :9090]
package main

import (
	"flag"
	"log/slog"
	"os"
	"time"

	"histcube/internal/histserve"
	"histcube/internal/lineserver"
)

func main() {
	var (
		cfg    histserve.Config
		shared = lineserver.RegisterFlags(flag.CommandLine, ":7070")
	)
	flag.StringVar(&cfg.Dims, "dims", "16,16", "comma-separated non-time dimension sizes")
	flag.StringVar(&cfg.Op, "op", "sum", "aggregate operator: sum, count, avg")
	flag.BoolVar(&cfg.OOO, "ooo", false, "buffer out-of-order updates instead of rejecting them")
	flag.StringVar(&cfg.Load, "load", "", "resume from a snapshot written by the SAVE command")
	flag.StringVar(&cfg.DataDir, "data-dir", "", "durable data directory (write-ahead log + checkpoints); empty disables durability")
	flag.StringVar(&cfg.Fsync, "fsync", "always", "WAL fsync policy: always, never (with -data-dir)")
	flag.Int64Var(&cfg.CheckpointEvery, "checkpoint-every", 10000, "checkpoint every N WAL records; 0 = only on CHECKPOINT/shutdown (with -data-dir)")
	flag.DurationVar(&cfg.DegradedProbeEvery, "degraded-probe-every", 2*time.Second, "while read-only, let one mutation through per interval to probe storage recovery")
	flag.StringVar(&cfg.SealThrough, "seal-through", "", "reject mutations with time at or below this value (historic-shard demotion; the SEAL command raises it at runtime); empty seals nothing")
	flag.StringVar(&cfg.Follow, "follow", "", "run as a replica of the given primary histserve address: apply its WAL stream and reject client mutations until PROMOTE (requires -data-dir)")
	flag.IntVar(&cfg.ReplMinAcks, "repl-min-acks", 0, "followers that must acknowledge a mutation before the client sees OK (semi-synchronous replication); 0 = asynchronous")
	flag.DurationVar(&cfg.ReplAckTimeout, "repl-ack-timeout", 2*time.Second, "how long a mutation waits for -repl-min-acks follower acknowledgements before answering ERR (the write is then indeterminate, not failed)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := histserve.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	// The metrics listener is up before Start's WAL recovery.
	stop, err := shared.Apply(&srv.Server, logger)
	if err != nil {
		os.Exit(1)
	}
	defer stop()
	if err := srv.Start(); err != nil {
		os.Exit(1)
	}
	if err := srv.Run(*shared.Addr); err != nil {
		os.Exit(1)
	}
	srv.Close()
	logger.Info("shutdown complete")
}
