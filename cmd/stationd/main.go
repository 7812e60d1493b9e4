// Command stationd serves the on-demand selector over HTTP, so a real
// base station (or web proxy) can call the paper's selection machinery as
// a sidecar service. The daemon is stateful: it holds a catalog and a
// live recency vector, decaying entries as update notifications arrive.
//
// Endpoints (all JSON):
//
//	POST /v1/catalog    {"sizes":[3,1,4]}           — (re)install the catalog
//	POST /v1/updates    {"objects":[1,2]}           — masters changed: decay copies
//	POST /v1/fetched    {"objects":[1]}             — copies refreshed to fresh
//	POST /v1/select     {"requests":[...],"budget":5}
//	POST /v1/recommend  {"requests":[...],"max_budget":50,"fraction_of_max":0.9}
//	POST /v1/failed     {"objects":[1],"retries":2}  — downloads lost to faults
//	POST /v1/config     {"solver":"greedy"}         — swap the knapsack solver at
//	                      runtime (selector and clone pool rebuild atomically)
//	POST /v1/request    {"client":0,"object":7,"target":0.8}
//	                    — serving tier (-serve): ingest one request into the
//	                      current selection window; blocks until served
//	GET  /v1/peer/object?id=N                       — cooperative-fetch probe: this
//	                      station's cached copy of N (200) or 404; shed-exempt
//	GET  /v1/serve/status                           — window/peer counters + config
//	GET  /v1/state                                  — current recency vector
//	GET  /v1/status                                 — catalog size, solver, fault counters, breaker state
//	GET  /v1/trace?n=K                              — last K selection decisions
//	GET  /healthz                                   — liveness (always 200 while serving)
//	GET  /readyz                                    — readiness: ready/degraded (200), shedding/draining (503)
//	GET  /metrics                                   — Prometheus text exposition
//
// A request's target recency must lie in (0, 1] on /v1/select,
// /v1/recommend and /v1/request: the score functions never count a
// target ≤ 0 or > 1 as met, so such a target is answered with 400 and
// the offending request's index. The /v1/select, /v1/updates and
// /v1/fetched bodies are decoded by a schema-specific fast path
// (decode.go) that hands anything outside its strict JSON subset to
// encoding/json, counted on stationd_decode_fallbacks_total.
//
// Start with:
//
//	stationd -addr :8080 -max-inflight 64 -breaker-failures 5
//
// Pass -pprof to additionally expose net/http/pprof under /debug/pprof/.
//
// Retrying upstream fetches is the fronting proxy's job: it reports each
// download it lost after its own retries on /v1/failed, and /v1/status
// sums what it reported.
//
// Resilience: -max-inflight caps concurrently served requests (excess
// gets 503 instead of queueing; probes and /metrics are exempt), and
// -breaker-failures arms a circuit breaker over the upstream fetch path,
// fed by the outcomes the proxy reports on /v1/failed and /v1/fetched.
// On SIGINT/SIGTERM the daemon flips /readyz to "draining" and finishes
// in-flight requests within -drain-timeout before exiting.
//
// Serving tier: -serve turns the daemon into an event-driven station.
// POST /v1/request ingests individual client requests, which accumulate
// into selection windows (closed by -serve-max-batch requests or
// -serve-max-wait elapsed) and are served by the knapsack selector one
// window at a time — the simulator's "tick" with requests arriving over
// the wire. A fleet shards the catalog by consistent hashing over the
// -peers URLs (which must include -self); an object owned by another
// member is first requested from that peer's cache via GET
// /v1/peer/object, guarded by a per-peer circuit breaker. Start a
// two-station fleet with:
//
//	stationd -addr :8081 -serve -self http://127.0.0.1:8081 \
//	         -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//	stationd -addr :8082 -serve -self http://127.0.0.1:8082 \
//	         -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// then install the same catalog on both. bench/run.sh --workload serve-hot
// starts and drives such a fleet end to end.
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
	"strings"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	maxInflight := flag.Int64("max-inflight", 0, "concurrent request cap; excess requests get 503 instead of queueing (0 = unlimited)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failed downloads (via /v1/failed) that open the upstream circuit breaker (0 = no breaker)")
	breakerOpen := flag.Int("breaker-open-events", 0, "reported fetch outcomes an open breaker waits before probing (0 = default 8)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	solver := flag.String("solver", "dp", "knapsack solver: dp, greedy, incremental, or certified (also settable at runtime via POST /v1/config)")
	serveOn := flag.Bool("serve", false, "enable the event-driven serving tier (POST /v1/request)")
	serveMaxBatch := flag.Int("serve-max-batch", 32, "requests that close a selection window")
	serveMaxWait := flag.Duration("serve-max-wait", 5*time.Millisecond, "max wait before a non-full window closes")
	serveQueue := flag.Int("serve-queue", 0, "submit queue bound (0 = 4x max batch); a full queue blocks, not drops")
	serveBudget := flag.Int64("serve-budget", 0, "download budget per window in data units (0 = unlimited)")
	serveUpdatePeriod := flag.Int("serve-update-period", 0, "run the station's periodic update schedule every N windows (0 = updates only via POST /v1/updates)")
	self := flag.String("self", "", "this station's own peer URL (must appear in -peers)")
	peersFlag := flag.String("peers", "", "comma-separated peer URLs of the station fleet, including -self; fewer than two disables cooperative fetching")
	peerBreakerFailures := flag.Int("peer-breaker-failures", 0, "consecutive failed peer fetches that open that peer's circuit breaker (0 = default 5)")
	peerBreakerOpen := flag.Int("peer-breaker-open-events", 0, "fetch attempts an open peer breaker refuses before probing (0 = default)")
	flag.Parse()
	srv := newServer()
	if *pprofOn {
		srv.enablePprof()
		log.Printf("stationd: pprof enabled on /debug/pprof/")
	}
	if *maxInflight < 0 {
		fmt.Fprintln(os.Stderr, "stationd: negative -max-inflight")
		os.Exit(2)
	}
	if *breakerFailures < 0 || *breakerOpen < 0 {
		fmt.Fprintln(os.Stderr, "stationd: negative -breaker-failures or -breaker-open-events")
		os.Exit(2)
	}
	srv.setMaxInflight(*maxInflight)
	if err := srv.setSolver(*solver); err != nil {
		fmt.Fprintln(os.Stderr, "stationd:", err)
		os.Exit(2)
	}
	if *serveOn {
		var peers []string
		if *peersFlag != "" {
			for _, p := range strings.Split(*peersFlag, ",") {
				if p = strings.TrimSpace(p); p != "" {
					peers = append(peers, p)
				}
			}
		}
		err := srv.enableServing(serveOptions{
			MaxBatch:              *serveMaxBatch,
			MaxWait:               *serveMaxWait,
			Queue:                 *serveQueue,
			Budget:                *serveBudget,
			UpdatePeriod:          *serveUpdatePeriod,
			Self:                  *self,
			Peers:                 peers,
			PeerBreakerFailures:   *peerBreakerFailures,
			PeerBreakerOpenEvents: *peerBreakerOpen,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stationd:", err)
			os.Exit(2)
		}
		log.Printf("stationd: serving tier enabled (max batch %d, max wait %s, %d peers)",
			*serveMaxBatch, *serveMaxWait, len(peers))
	}
	if *breakerFailures > 0 {
		if err := srv.armBreaker(*breakerFailures, *breakerOpen); err != nil {
			fmt.Fprintln(os.Stderr, "stationd:", err)
			os.Exit(2)
		}
		log.Printf("stationd: circuit breaker armed (threshold %d)", *breakerFailures)
	}
	log.Printf("stationd: listening on %s", *addr)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "stationd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Flip /readyz to "draining" first so load balancers stop routing
		// here, then let in-flight requests finish within the budget.
		srv.startDraining()
		log.Printf("stationd: draining in-flight requests (budget %s)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("stationd: shutdown: %v", err)
			os.Exit(1)
		}
		// With the listener drained no new submits can arrive; stop the
		// window loop last so in-flight requests were answered normally.
		srv.stopEngine()
		log.Printf("stationd: shutdown complete")
	}
}
