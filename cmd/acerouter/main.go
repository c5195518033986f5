// acerouter is the stateless front of an aced cluster: it
// consistent-hashes session ids across the shard list, forwards
// POST /v1/sessions (minting the session id so its placement is known
// before the session exists) and POST /v1/infer with retry and
// failover to the session's replica shard, and aggregates the shards'
// GET /metrics, /v1/statz and /v1/profilez pages cluster-wide.
//
// It keeps no per-session state: placement is a pure function of the
// session id and the shard list, so any number of router replicas can
// run side by side, and a router restart loses nothing.
//
// Quick start against three shards (see README "Running a cluster"):
//
//	acerouter -addr :8080 -shards http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"antace/internal/cluster"
	"antace/internal/fault"
	"antace/internal/fheclient"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		shards     = flag.String("shards", "", "comma-separated base URLs of the aced shards (required)")
		probeEvery = flag.Duration("probe-every", 500*time.Millisecond, "readiness poll period per shard (negative = disabled)")
		attempts   = flag.Int("attempts", 0, "failover rounds across the candidate shards (0 = default 4)")
		hedgeAfter = flag.Duration("hedge-after", 0, "fixed delay before hedging an inference to the replica shard (0 = adaptive per-shard p95, negative = hedging off)")
		addrFile   = flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts and tests)")
		logFormat  = flag.String("log-format", "json", "log output format: json or text")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acerouter: %v\n", err)
		return 1
	}
	slog.SetDefault(logger)

	if armed, err := fault.ArmFromEnv(); err != nil {
		logger.Error("bad ACE_FAULTS", slog.String("err", err.Error()))
		return 1
	} else if armed {
		for _, p := range fault.Snapshot() {
			logger.Info("fault armed", slog.String("point", p.Point),
				slog.Uint64("seed", p.Seed), slog.Uint64("count", p.Count))
		}
	}

	if *shards == "" {
		logger.Error("missing -shards")
		return 1
	}
	ring, err := cluster.NewRing(strings.Split(*shards, ","), 0)
	if err != nil {
		logger.Error("bad -shards", slog.String("err", err.Error()))
		return 1
	}
	router := cluster.NewRouter(ring, cluster.RouterConfig{
		Retry:      fheclient.RetryPolicy{MaxAttempts: *attempts},
		ProbeEvery: *probeEvery,
		HedgeAfter: *hedgeAfter,
		Logger:     logger,
	})
	defer router.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", slog.String("err", err.Error()))
		return 1
	}
	if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
		logger.Error("addr-file write failed", slog.String("err", err.Error()))
		_ = ln.Close()
		return 1
	}
	httpSrv := &http.Server{Handler: router}
	errc := make(chan error, 1)
	go func() {
		logger.Info("routing", slog.String("addr", ln.Addr().String()),
			slog.Int("shards", ring.Len()))
		errc <- httpSrv.Serve(ln)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exitCode := 0
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", slog.String("err", err.Error()))
			exitCode = 1
		}
	case <-ctx.Done():
	}

	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", slog.String("err", err.Error()))
	}
	fault.Disarm()
	return exitCode
}

func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want json or text)", format)
	}
}

func writeAddrFile(path, addr string) error {
	if path == "" {
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
