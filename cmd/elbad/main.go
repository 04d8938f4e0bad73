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
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"elba/internal/campaign"
	"elba/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "elbad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
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

	fmt.Printf("elbad listening on %s (%d workers)\n", *addr, *workers)
	return newHTTPServer(*addr, newMux(svc)).ListenAndServe()
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so idle or trickling connections cannot pin server goroutines.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the server elbad listens with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
