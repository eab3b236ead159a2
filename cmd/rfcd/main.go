// Command rfcd is the topology-query daemon: an HTTP/JSON service answering
// topology, routing, expandability and fault queries over deterministic
// RFC / fat-tree / random-regular builds, with a content-addressed build
// cache; path queries read the turn level straight from each build's
// up/down cover sets (see internal/service and DESIGN.md, "Serving layer").
//
// Endpoints:
//
//	GET  /healthz                       liveness
//	GET  /metrics                       counters (requests, cache, builds, errors) + byte gauges
//	POST /v1/topology                   build (or fetch cached) + summary stats
//	GET  /v1/topology/{key}/export      adjacency JSON / Graphviz DOT / edge list
//	GET  /v1/path?key=&src=&dst=&seed=  one shortest up/down path
//	POST /v1/paths                      batch of src/dst pairs, one round trip
//	POST /v1/expand                     plan an R-terminal expansion step (§5, Thm 4.2)
//	GET  /v1/faults?key=&links=&seed=   connectivity + routability under random faults
//	POST /v1/throughput                 max-min-fair flow rates for a traffic matrix
//
// Usage:
//
//	rfcd -addr :8080 -cache 64 -cache-bytes 0
//	rfcd -selfcheck        # in-process endpoint smoke test, used by CI
//
// A build holds no per-leaf-pair state, so there is no leaf-count cap
// beyond the switch limit. -cache-bytes bounds the cache by estimated
// topology memory on top of the -cache entry count; exports stream with
// chunked transfer encoding.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rfclos/internal/service"
	"rfclos/internal/service/client"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheSize  = flag.Int("cache", 64, "topology cache capacity (LRU entries)")
		cacheBytes = flag.Int64("cache-bytes", 0, "cache byte budget over estimated topology memory (0 = 8 GiB default, negative = unlimited)")
		selfcheck  = flag.Bool("selfcheck", false, "run the endpoint smoke test against an in-process server and exit")
	)
	flag.Parse()

	if *selfcheck {
		if err := client.Selfcheck(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rfcd: selfcheck failed:", err)
			os.Exit(1)
		}
		fmt.Println("rfcd: selfcheck passed")
		return
	}

	opts := service.Options{
		CacheSize:  *cacheSize,
		CacheBytes: *cacheBytes,
	}
	if err := run(*addr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "rfcd:", err)
		os.Exit(1)
	}
}

func run(addr string, opts service.Options) error {
	srv := service.New(opts)
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("rfcd: serving on %s (cache %d)\n", addr, opts.CacheSize)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("rfcd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
