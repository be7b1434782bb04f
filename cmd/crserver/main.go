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
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/server"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

func main() {
	var (
		addr             = flag.String("addr", ":8080", "listen address")
		data             = flag.String("data", "crdata", "datastore directory")
		workers          = flag.Int("workers", 4, "interactive executor pool size")
		batchWorkers     = flag.Int("batch-workers", 0, "batch-tier executor pool size (0 = same as -workers)")
		taskTimeout      = flag.Duration("task-timeout", 5*time.Minute, "per-task execution limit (0 = unlimited); requests may tighten it per task via timeout_ms")
		interactiveSlots = flag.Int("interactive-slots", 0, "admission control: max interactive tasks in flight; excess submissions get 429 + Retry-After (0 = unlimited; initial value when auto-sizing)")
		slotsMin         = flag.Int("interactive-slots-min", 0, "admission control: floor for slot auto-sizing (0 = 1; needs -interactive-slots-max)")
		slotsMax         = flag.Int("interactive-slots-max", 0, "admission control: ceiling for slot auto-sizing; with -slo-interactive-ms set, the slot limit hill-climbs between floor and ceiling against the p99 (0 = auto-sizing off)")
		maxPending       = flag.Int("max-pending-interactive", 0, "admission control: max interactive tasks admitted but not yet executing (0 = unlimited)")
		maxBacklog       = flag.Float64("max-backlog-units", 0, "admission control: max summed estimated cost of in-flight interactive tasks (0 = unlimited)")
		maxBacklogMS     = flag.Float64("max-backlog-ms", 0, "admission control: max summed PREDICTED milliseconds of in-flight interactive work, via the learned units/ms calibration (0 = unlimited)")
		sloInteractiveMS = flag.Int64("slo-interactive-ms", 0, "admission control: interactive p99 run-time objective in milliseconds; while breached, submissions shed with reason slo before any occupancy limit (0 = off)")
		retryAfter       = flag.Duration("retry-after", time.Second, "floor of the back-off hint returned with shed requests (Retry-After header); raised to the predicted backlog drain time when larger")
		trafficTopK      = flag.Int("traffic-topk", 0, "heavy-hitter keys the traffic sketch tracks for the learned pre-warm (0 = default, negative = disable traffic learning)")
		trafficHalfLife  = flag.Duration("traffic-halflife", 0, "half-life of the traffic sketch's time decay: counts halve at this cadence so stale hot keys age out of the pre-warm pin set (0 = 1h default, negative = no decay)")
		prewarm          = flag.Bool("prewarm", true, "pre-warm reverse-push indexes and walk-endpoint recordings for the catalog's suggested nodes at startup, then for the previous boot's observed heavy hitters")
		artifactCap      = flag.Int64("artifact-cap-mb", 0, "total size cap in MiB for persisted artifacts (indexes + endpoint recordings); least recently accessed are swept first (0 = unlimited)")
		indexCap         = flag.Int64("index-cap-mb", 0, "per-kind size cap in MiB for persisted reverse-push indexes (0 = unlimited)")
		endpointCap      = flag.Int64("endpoint-cap-mb", 0, "per-kind size cap in MiB for persisted walk-endpoint recordings (0 = unlimited)")
		enablePprof      = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (do not enable on public deployments)")
		slowQueryMS      = flag.Int64("slow-query-ms", 0, "log one structured line, with the full phase breakdown, for every task running at least this many milliseconds (0 = off)")
	)
	flag.Parse()

	store, err := datastore.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalog()
	if err != nil {
		log.Fatal(err)
	}
	// Registry is left nil: the server builds the built-in registry
	// over its persistent two-tier artifact caches, so reverse-push
	// target indexes and walk-endpoint recordings computed before a
	// restart are served from disk after it.
	srv, err := server.New(server.Config{
		Catalog:      catalog,
		Store:        store,
		Workers:      *workers,
		BatchWorkers: *batchWorkers,
		TaskTimeout:  *taskTimeout,
		Admission: task.AdmissionConfig{
			InteractiveSlots:      *interactiveSlots,
			InteractiveSlotsMin:   *slotsMin,
			InteractiveSlotsMax:   *slotsMax,
			MaxPendingInteractive: *maxPending,
			MaxBacklogUnits:       *maxBacklog,
			MaxBacklogMS:          *maxBacklogMS,
			SLOInteractive:        time.Duration(*sloInteractiveMS) * time.Millisecond,
			RetryAfter:            *retryAfter,
		},
		TrafficTopK:        *trafficTopK,
		TrafficHalfLife:    *trafficHalfLife,
		PreWarm:            *prewarm,
		ArtifactCapBytes:   *artifactCap << 20,
		IndexCapBytes:      *indexCap << 20,
		EndpointCapBytes:   *endpointCap << 20,
		EnablePprof:        *enablePprof,
		SlowQueryThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	go func() {
		<-ctx.Done()
		shutdownCtx, c := context.WithTimeout(context.Background(), 10*time.Second)
		defer c()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Println("shutdown:", err)
		}
		// Stop background lifecycle work (pre-warm, artifact GC) before
		// the scheduler so nothing computes into a closing system.
		srv.Close()
		if err := srv.Scheduler().Shutdown(shutdownCtx); err != nil {
			log.Println("scheduler shutdown:", err)
		}
	}()

	fmt.Printf("cyclerank demo listening on %s (datastore %s, %d workers, %d datasets)\n",
		*addr, *data, *workers, catalog.Len())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
