// Command elbad serves the characterizer as a long-running campaign
// service: TBL documents are submitted over HTTP, queued, and executed
// by a deterministic worker pool against a shared content-addressed
// trial cache, so overlapping sweeps and re-submitted documents reuse
// prior results byte-for-byte instead of re-simulating.
//
// Usage:
//
//	elbad [-addr :8080] [-workers 2] [-cachedir DIR] [-timescale F]
//	      [-stream] [-resultlogdir DIR]
//
// See docs/ELBAD.md for the API and the cache-keying contract.
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

	"elba/internal/campaign"
	"elba/internal/core"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "elbad:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then shuts down gracefully: the
// listener closes, in-flight requests get shutdownTimeout to finish, and
// the service cancels and drains its campaigns, flushing their result
// logs. A cancelled run returns nil.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("elbad", flag.ContinueOnError)
	knobs := core.Flags(fs)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 2, "campaigns executed concurrently")
	queueDepth := fs.Int("queue", 16, "accepted-but-not-running campaign capacity")
	cacheDir := fs.String("cachedir", "", "persist the trial cache under this directory (empty = in-memory)")
	stream := fs.Bool("stream", false, "stream campaigns: per-trial sketches, live SSE events, running folded tables")
	resultLogDir := fs.String("resultlogdir", "", "write each campaign's append-only result log under this directory (implies -stream)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Campaigns build their characterizers lazily; validate the knobs now
	// so a typo fails the daemon at startup, not every submission.
	opts, err := knobs()
	if err != nil {
		return err
	}

	var cache *campaign.Cache
	if *cacheDir != "" {
		cache, err = campaign.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		fmt.Printf("trial cache: %s (%s)\n", *cacheDir, cache.Stats())
	}
	svc := campaign.NewService(campaign.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		Cache:        cache,
		Stream:       *stream,
		ResultLogDir: *resultLogDir,
		Options:      opts,
	})
	defer svc.Close()

	srv := newHTTPServer(*addr, newMux(svc))
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("elbad listening on %s (%d workers)\n", ln.Addr(), *workers)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// Connections still open at the deadline, such as event streams
		// of running campaigns, are dropped.
		srv.Close()
	}
	<-served // Serve returns ErrServerClosed once the server is shut down
	return nil
}

// shutdownTimeout bounds how long a shutdown waits for in-flight requests.
const shutdownTimeout = 10 * time.Second

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so idle or trickling connections cannot pin server goroutines.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the server elbad listens with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
