// plsqld serves an embedded plsqlaway engine over TCP using the wire
// protocol: one session per connection, pipelined request execution, and
// graceful drain on SIGINT/SIGTERM, bounded by -drain (default 10s). The
// client package (and sqlshell -connect) speak to it.
//
// Usage:
//
//	plsqld [-addr host:port] [-profile postgres|oracle|sqlite] [-seed N]
//	       [-batchsize N] [-data-dir DIR] [-sync off|batched|commit]
//	       [-drain DURATION] [-metrics-addr host:port] [-slow-query-ms N]
//	       [-checkpoint-bytes N] [-verbose]
//
// The daemon starts with an empty catalog; remote clients install
// schemas and functions over the wire (CREATE TABLE / CREATE FUNCTION …
// LANGUAGE plpgsql or sql), exactly as an embedded engine would.
//
// With -data-dir the engine is durable: commits append to a write-ahead
// log in DIR, boot replays the checkpoint + log (recovering everything
// acknowledged before a crash), and graceful shutdown checkpoints.
// Without it the engine is volatile, as before. -checkpoint-bytes makes
// the engine checkpoint automatically once the log outgrows the bound.
//
// With -metrics-addr the daemon serves the engine's metrics registry in
// Prometheus text format at /metrics, plus net/http/pprof under
// /debug/pprof/, on a separate HTTP listener. -slow-query-ms logs every
// statement that crosses the threshold, with phase timings and the
// plan's shape counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/server"
	"plsqlaway/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5455", "TCP listen address")
	profName := flag.String("profile", "postgres", "engine profile: postgres, oracle, or sqlite")
	seed := flag.Uint64("seed", 42, "default random() seed for new sessions")
	batchSize := flag.Int("batchsize", 0, "executor batch size (0 = engine default)")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = volatile engine)")
	syncFlag := flag.String("sync", "batched", "WAL sync mode: off, batched (group commit), or commit")
	drain := flag.Duration("drain", 10*time.Second, "max time to drain connections on shutdown")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics and /debug/pprof (empty = off)")
	slowQueryMS := flag.Int64("slow-query-ms", 0, "log statements slower than this many milliseconds (0 = off)")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0, "auto-checkpoint once the WAL exceeds this many bytes (0 = off)")
	verbose := flag.Bool("verbose", false, "log per-connection diagnostics")
	flag.Parse()

	prof, err := profile.ByName(*profName)
	if err != nil {
		fatal(err)
	}
	syncMode, err := wal.ParseSyncMode(*syncFlag)
	if err != nil {
		fatal(err)
	}
	opts := []engine.Option{
		engine.WithProfile(prof),
		engine.WithSeed(*seed),
		engine.WithSyncMode(syncMode),
	}
	if *batchSize > 0 {
		opts = append(opts, engine.WithBatchSize(*batchSize))
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterProcessMetrics(reg)
		opts = append(opts, engine.WithMetricsRegistry(reg))
	}
	if *slowQueryMS > 0 {
		opts = append(opts, engine.WithSlowQuery(time.Duration(*slowQueryMS)*time.Millisecond, log.Printf))
	}
	if *checkpointBytes > 0 {
		opts = append(opts, engine.WithCheckpointBytes(*checkpointBytes))
	}
	e, err := engine.Open(*dataDir, opts...)
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		log.Printf("plsqld: durable data dir %s (sync=%s)", *dataDir, syncMode)
	}

	if reg != nil {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		msrv := &http.Server{Handler: obs.NewMux(reg)}
		go func() {
			if err := msrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("plsqld: metrics listener: %v", err)
			}
		}()
		defer msrv.Close()
		log.Printf("plsqld: metrics on http://%s/metrics (pprof under /debug/pprof/)", mln.Addr())
	}

	srvOpts := server.Options{Banner: fmt.Sprintf("plsqlaway (%s)", prof.Name)}
	if *verbose {
		srvOpts.Logf = log.Printf
	}
	srv := server.New(e, srvOpts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("plsqld: serving profile %s on %s", prof.Name, ln.Addr())

	// Serve returns as soon as Shutdown closes the listener; drained is
	// how main waits for the in-flight statements to finish before the
	// process exits.
	drained := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(drained)
		s := <-sigs
		log.Printf("plsqld: %v — draining connections (max %s)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("plsqld: %v", err)
		}
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, server.ErrServerClosed) {
		fatal(err)
	}
	<-drained
	// Connections are drained, so no commit races the final checkpoint.
	if err := e.Close(); err != nil {
		log.Printf("plsqld: close: %v", err)
	}
	log.Printf("plsqld: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plsqld:", err)
	os.Exit(1)
}
