// Command crserver runs the demo platform: the API gateway, the Web
// UI, and the embedded executor pool (the paper's computational
// nodes).
//
// Usage:
//
//	crserver -addr :8080 -data ./crdata -workers 4
//
// Then open http://localhost:8080/ for the task builder,
// /instructions for the upload formats, and POST query sets to
// /api/tasks. The returned comparison id is a permalink:
// /compare/{id}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/server"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// options holds what crserver's flags set.
type options struct {
	addr, data            string
	workers, batchWorkers int
	taskTimeout           time.Duration
	prewarm, pprof        bool
	artifactCapMB         int64
	slowQueryMS           int64
}

// newFlagSet binds crserver's flags to o. The set is named after the
// program, as flag.CommandLine is, so -h reads the same.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.data, "data", "crdata", "datastore directory")
	fs.IntVar(&o.workers, "workers", 4, "interactive executor pool size")
	fs.IntVar(&o.batchWorkers, "batch-workers", 0, "batch-tier executor pool size (0 = same as -workers)")
	fs.DurationVar(&o.taskTimeout, "task-timeout", 5*time.Minute, "per-task execution limit (0 = unlimited); requests may tighten it per task via timeout_ms")
	fs.BoolVar(&o.prewarm, "prewarm", true, "pre-warm reverse-push indexes and walk-endpoint recordings for the catalog's suggested nodes at startup")
	fs.Int64Var(&o.artifactCapMB, "artifact-cap-mb", 0, "total size cap in MiB for persisted artifacts (indexes + endpoint recordings); least recently accessed are swept first (0 = unlimited)")
	fs.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (do not enable on public deployments)")
	fs.Int64Var(&o.slowQueryMS, "slow-query-ms", 0, "log one structured line, with the full phase breakdown, for every task running at least this many milliseconds (0 = off)")
	return fs
}

// run parses args, serves until ctx is cancelled, then shuts down in
// order: the HTTP server (waiting for in-flight requests), the
// server's background work, the scheduler. It returns only after all
// three have returned. The listening line goes to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	if err := newFlagSet(&o).Parse(args); err != nil {
		return err
	}

	store, err := datastore.Open(o.data)
	if err != nil {
		return err
	}
	if err := store.MigrationErr(); err != nil {
		// The sets named stay on disk, unlisted; the server serves the rest.
		log.Print(err)
	}
	catalog, err := datasets.BuiltinCatalog()
	if err != nil {
		return err
	}
	// Registry is left nil: the server builds the built-in registry
	// over its persistent two-tier artifact caches, so reverse-push
	// target indexes and walk-endpoint recordings computed before a
	// restart are served from disk after it.
	srv, err := server.New(server.Config{
		Catalog:            catalog,
		Store:              store,
		Workers:            o.workers,
		BatchWorkers:       o.batchWorkers,
		TaskTimeout:        o.taskTimeout,
		PreWarm:            o.prewarm,
		ArtifactCapBytes:   o.artifactCapMB << 20,
		EnablePprof:        o.pprof,
		SlowQueryThreshold: time.Duration(o.slowQueryMS) * time.Millisecond,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// served carries Serve's result, or the listen error: either way
	// the shutdown below runs, so a failed start stops the server's
	// background work and scheduler too.
	served := make(chan error, 1)
	if ln, err := net.Listen("tcp", o.addr); err != nil {
		served <- err
	} else {
		go func() { served <- httpSrv.Serve(ln) }()
		fmt.Fprintf(stdout, "cyclerank demo listening on %s (datastore %s, %d workers, %d datasets)\n",
			ln.Addr(), o.data, o.workers, catalog.Len())
	}

	var serveErr error
	select {
	case serveErr = <-served:
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		errs = append(errs, fmt.Errorf("shutdown: %w", err))
	}
	// Stop background lifecycle work (pre-warm, artifact GC), then the
	// scheduler, so nothing computes into a closing system. The wait is
	// bounded: a task stuck where it does not check its context (a
	// catalog graph regenerating, a snapshot decoding) must not hang
	// the exit.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-shutdownCtx.Done():
		errs = append(errs, fmt.Errorf("scheduler shutdown: timed out: %w", shutdownCtx.Err()))
	}
	if serveErr == nil {
		serveErr = <-served
	}
	if !errors.Is(serveErr, http.ErrServerClosed) {
		errs = append(errs, serveErr)
	}
	return errors.Join(errs...)
}
