// Command sweepd serves sweep-as-a-service: a long-running experiment server
// that accepts RunSpec batches over HTTP/JSON (see internal/sweepd for the
// API), spreads the points across a simulation worker pool, and memoises
// every result in a persistent fingerprint-keyed store so identical points —
// across jobs, clients and restarts — simulate exactly once.
//
//	sweepd -addr :8080 -store-dir results/ -checkpoint-dir ckpts/ -checkpoint-at 2us
//
// The execution layer is fault tolerant: transient point failures (hangs,
// blown -point-deadline budgets, worker panics) retry on a seeded backoff
// schedule (-retry-max, -retry-base, -retry-seed); points that fail
// permanently or exhaust their budget are quarantined in the store's poison/
// directory and served as errors until un-quarantined; -max-queue sheds
// submissions beyond the queue depth bound with HTTP 429.
//
// SIGINT/SIGTERM starts a graceful drain: the server stops accepting jobs,
// finishes every queued point (retry backoffs are skipped), then exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gem5rtl/internal/cli"
	"gem5rtl/internal/sweepd"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all CPUs)")
	storeDir := flag.String("store-dir", "", "persist results as <fingerprint>.json here (empty = in-memory only)")
	quota := flag.Int("quota", 0, "max live (queued+running) points per client (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "max waiting points (pending + retry-wait); excess submissions shed with 429 (0 = unbounded)")
	retryMax := flag.Int("retry-max", 0, "total execution attempts per point before quarantine (0 = default 3, 1 disables retries)")
	retryBase := flag.Duration("retry-base", 0, "first retry backoff, doubling per attempt (0 = default 100ms)")
	retrySeed := flag.Uint64("retry-seed", 0, "seed for the deterministic retry jitter schedule")
	pointDeadline := flag.Duration("point-deadline", 0, "wall-clock budget per execution attempt; a blown deadline retries the point (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "how long a signal-triggered drain may run before abandoning the queue")
	// -self-profile's attribution aggregates on GET /v1/metrics.
	fl := cli.Register(flag.CommandLine, cli.Watchdog|cli.SelfProfile|cli.WarmStart)
	flag.Parse()

	srv, err := sweepd.New(sweepd.Config{
		Workers:  *workers,
		StoreDir: *storeDir,
		Options:  fl.Options(),
		Quota:    *quota,
		MaxQueue: *maxQueue,
		Retry: sweepd.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseDelay:   *retryBase,
			Seed:        *retrySeed,
		},
		PointDeadline: *pointDeadline,
		SelfProfile:   fl.SelfProfile,
	})
	if err != nil {
		cli.Fatal(err)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal(err)
	}
	// Printed (not logged) so scripts can capture the ephemeral port.
	fmt.Printf("sweepd: listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sweepd: %v: draining (finishing queued points, rejecting new jobs)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd: drain:", err)
		}
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelShutdown()
		_ = httpSrv.Shutdown(shutdownCtx)
		fmt.Fprintln(os.Stderr, "sweepd: drained, exiting")
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			cli.Fatal(err)
		}
	}
}
