// Command aidaserver runs the AIDA annotation pipeline as a long-running
// HTTP service: the knowledge base is loaded once, one System is shared
// across all requests, and annotation responses are byte-identical to the
// in-process API at any parallelism.
//
// Usage:
//
//	aidaserver -kb kb.gob -addr :8080
//	aidaserver -gen 2000 -seed 7 -addr localhost:8080
//	aidaserver -kb kb.gob -shard-host 0/4 -addr :8081     # serve KB shard 0 of 4
//	aidaserver -shard-map fleet.json -addr :8080          # annotate over a remote fleet
//	aidaserver -gen 2000 -tenants tenants.json -addr :8080 # multi-tenant quotas
//	aidaserver -gen 2000 -domains domains.json -addr :8080 # per-domain dictionary layers
//
// Endpoints:
//
//	POST /v1/annotate        {"text": "...", "method": "..."}  one document;
//	                         ?format=html (or Accept: text/html) returns the
//	                         annotated-HTML rendering instead of JSON
//	POST /v1/annotate/batch  {"docs": [...], "parallelism": N,
//	                          "method": "..."}                 many documents;
//	                         Accept: application/x-ndjson (or ?stream=1)
//	                         streams one result line per document
//	GET  /v1/relatedness     ?kind=KORE&a=1&b=2                entity relatedness
//	GET  /v1/stats           engine+server counters (incl. per-endpoint,
//	                         per-tenant and canceled-request totals);
//	                         ?format=prometheus for the Prometheus text
//	                         exposition
//	POST /v1/admin/kb/delta  apply a live KB delta (new entities, rows,
//	                         links) without restart; journaled when
//	                         -delta-journal is set
//	GET  /demo               static browser demo driving the annotate and
//	                         streaming endpoints (no external assets)
//	GET  /healthz            liveness (reports the serving KB generation)
//	/v1/store/*              the remote KB read surface (-shard-host mode
//	                         only): meta, entities, rows, names, idf
//
// Every request is traced: an X-Request-ID header is accepted (or minted)
// and echoed on the response, attached to the structured request log line
// and embedded in error bodies, so any one artifact of a request finds
// the others. With -tenants tenants.json the server runs multi-tenant:
// every endpoint except /healthz, /v1/stats and /demo requires a known
// API key ("Authorization: Bearer <key>" or "X-API-Key"), each tenant
// gets a token-bucket request rate and a max-concurrent quota, and
// over-quota requests are rejected with 429 + Retry-After. SIGHUP
// hot-reloads the tenants file without dropping counters.
//
// With -shard-host "i/n" the process serves shard i of an n-wide KB fleet
// to remote routers; with -shard-map fleet.json the process is such a
// router, annotating over remote shard hosts instead of a locally loaded
// KB (hedged fetches after -hedge-after, retry and replica failover on
// error or fingerprint mismatch; output is byte-identical to a local KB).
//
// The KB itself is live: deltas POSTed to /v1/admin/kb/delta swap in a new
// copy-on-write generation atomically — in-flight documents finish on the
// generation they started with, the next request links the new entities.
// -delta-journal makes applies durable (replayed at boot; a torn tail
// frame from a crash is truncated with a warning).
//
// Annotation requests are full aida.RequestSpec documents: besides "text"
// and "docs" every JSON field of the spec applies per request — "method"
// selects the disambiguation method (-method only sets the default),
// "context" supplies an interest model (keyphrases, entity ids, blend
// weight) blended into mention-entity scoring as a short-text context
// prior, and "domain" routes the request through a per-domain dictionary
// layer registered from the -domains file (a JSON array of named
// surface→entity dictionaries, composed copy-on-write over the base KB).
// Requests without context or domain are byte-identical to builds that
// predate them.
//
// Every endpoint honors request-context cancellation: when a client
// disconnects, in-flight scoring is aborted, the request is logged with
// status 499 and counted in the canceled-request counter.
//
// The process drains in-flight requests on SIGINT/SIGTERM (-drain bounds
// the wait). See docs/API.md for the full request/response reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aida"
	"aida/internal/kb"
	"aida/internal/kb/live"
	"aida/internal/server"
	"aida/internal/wiki"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		kbPath    = flag.String("kb", "", "path to a KB snapshot (gob)")
		gen       = flag.Int("gen", 0, "generate a synthetic KB with this many entities")
		seed      = flag.Int64("seed", 42, "seed for -gen")
		method    = flag.String("method", "aida", "method: "+strings.Join(aida.MethodNames(), ", "))
		shards    = flag.Int("shards", 1, "report N-shard placement; reads are the KB's own (responses are byte-identical at any count)")
		maxCand   = flag.Int("max-candidates", 20, "candidates per mention (0 = no cap)")
		defPar    = flag.Int("j", 0, "default per-request parallelism (0 = GOMAXPROCS)")
		maxPar    = flag.Int("jmax", 0, "per-request parallelism cap (0 = GOMAXPROCS)")
		maxBody   = flag.Int64("max-body", 8<<20, "max request body bytes")
		maxBatch  = flag.Int("max-batch", 1024, "max documents per batch request")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		jsonLog   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = disabled")
		shardHost = flag.String("shard-host", "", "serve shard i of an n-wide fleet as \"i/n\": mounts the KB read surface under /v1/store/ for remote routers")
		shardMap  = flag.String("shard-map", "", "path to a shard-fleet topology file (JSON): the KB is dialed from remote shard hosts instead of loaded locally; -kb/-gen are not required")
		hedge     = flag.Duration("hedge-after", 50*time.Millisecond, "with -shard-map, race a fetch against the next replica after this latency (negative disables hedging)")
		journal   = flag.String("delta-journal", "", "append-only journal of applied KB deltas: replayed at boot, appended on every apply (live updates survive restarts)")
		tenants   = flag.String("tenants", "", "path to a tenants file (JSON): per-tenant API keys, token-bucket rates and max-concurrent quotas; hot-reloaded on SIGHUP (empty = open server, no auth)")
		domains   = flag.String("domains", "", "path to a domain dictionaries file (JSON): each named surface→entity dictionary is composed over the base KB as a per-domain layer, selectable per request via \"domain\"")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *jsonLog {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	m, err := aida.MethodByName(*method)
	if err != nil {
		logger.Error("select method", "err", err)
		os.Exit(1)
	}
	var store aida.Store
	var host *kb.StoreHost
	if *shardMap != "" {
		// Fleet-client mode: the KB lives on remote shard hosts; nothing is
		// loaded locally (dictionary keys and IDF tables are mirrored at
		// dial time, entities and candidate rows fetched on demand).
		fleet, err := kb.LoadShardMap(*shardMap)
		if err != nil {
			logger.Error("load shard map", "err", err)
			os.Exit(1)
		}
		remote, err := kb.DialFleet(context.Background(), fleet, kb.RemoteOptions{HedgeAfter: *hedge})
		if err != nil {
			logger.Error("dial shard fleet", "err", err)
			os.Exit(1)
		}
		logger.Info("dialed shard fleet", "shards", remote.NumShards(),
			"fingerprint", fmt.Sprintf("%016x", remote.Fingerprint()))
		store = remote
	} else {
		k, err := loadKB(*kbPath, *gen, *seed)
		if err != nil {
			logger.Error("load KB", "err", err)
			os.Exit(1)
		}
		store = k
		switch {
		case *shards < 1:
			logger.Error("invalid -shards", "shards", *shards)
			os.Exit(1)
		case *shards > 1:
			store = aida.ShardKB(k, *shards)
		}
	}
	if *shardHost != "" {
		var shard, width int
		if n, err := fmt.Sscanf(*shardHost, "%d/%d", &shard, &width); err != nil || n != 2 {
			logger.Error("invalid -shard-host, want \"i/n\"", "value", *shardHost)
			os.Exit(1)
		}
		host, err = kb.NewStoreHost(store, shard, width)
		if err != nil {
			logger.Error("shard host", "err", err)
			os.Exit(1)
		}
		logger.Info("hosting KB shard", "shard", shard, "shards", width, "names", host.NumNames())
	}
	sys := aida.New(store, aida.WithMethod(m), aida.WithMaxCandidates(*maxCand))

	var deltaJournal *live.Journal
	if *journal != "" {
		// Replay first: every delta applied in previous lives is reinstalled
		// before traffic starts, so applied deltas survive restarts. A
		// delta that no longer validates (a journal edited by hand or written
		// for another KB) is skipped with a warning rather than blocking boot.
		applied, truncated, err := live.ReplayJournal(*journal, func(d *aida.Delta) error {
			if _, aerr := sys.ApplyDelta(d); aerr != nil {
				logger.Warn("journaled delta skipped", "err", aerr)
			}
			return nil
		})
		if err != nil {
			logger.Error("replay delta journal", "path", *journal, "err", err)
			os.Exit(1)
		}
		if truncated {
			logger.Warn("delta journal had a torn tail frame (crash mid-append); truncated", "path", *journal)
		}
		if applied > 0 {
			logger.Info("delta journal replayed", "path", *journal, "deltas", applied,
				"generation", sys.Generation(), "entities", sys.Store().NumEntities())
		}
		deltaJournal, err = live.OpenJournal(*journal)
		if err != nil {
			logger.Error("open delta journal", "path", *journal, "err", err)
			os.Exit(1)
		}
		defer deltaJournal.Close()
	}

	if *domains != "" {
		// Registered after the journal replay only so each layer is built
		// once: ApplyDelta rebuilds every registered layer over the new
		// generation, so either order serves the same layers.
		dicts, err := kb.LoadDomainDictionaries(*domains)
		if err != nil {
			logger.Error("load domain dictionaries", "path", *domains, "err", err)
			os.Exit(1)
		}
		for _, d := range dicts {
			if err := sys.RegisterDomain(d); err != nil {
				logger.Error("register domain", "domain", d.Name, "err", err)
				os.Exit(1)
			}
		}
		logger.Info("domain layers registered", "path", *domains, "domains", sys.DomainNames())
	}

	var registry *server.Tenants
	if *tenants != "" {
		registry, err = server.LoadTenants(*tenants)
		if err != nil {
			logger.Error("load tenants", "path", *tenants, "err", err)
			os.Exit(1)
		}
		logger.Info("tenant quotas enabled", "path", *tenants, "tenants", len(registry.Names()))
		// SIGHUP hot-reloads the tenants file: new keys and limits apply to
		// the next request, counters and in-flight accounting carry over,
		// and a bad file leaves the serving config untouched.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if n, rerr := registry.Reload(); rerr != nil {
					logger.Error("tenants reload failed; keeping current config", "path", *tenants, "err", rerr)
				} else {
					logger.Info("tenants reloaded", "path", *tenants, "tenants", n)
				}
			}
		}()
	}

	cfg := server.Config{
		MaxBodyBytes:       *maxBody,
		MaxBatchDocs:       *maxBatch,
		MaxParallelism:     *maxPar,
		DefaultParallelism: *defPar,
		Logger:             logger,
		ShardHost:          host,
		DeltaJournal:       deltaJournal,
		Tenants:            registry,
	}
	srv := server.New(sys, cfg)

	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr, logger); err != nil {
			logger.Error("pprof listen", "addr", *pprofAddr, "err", err)
			os.Exit(1)
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("serving", "addr", l.Addr().String(), "entities", store.NumEntities(), "shards", store.NumShards(), "method", *method)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, l, *drain); err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("stopped")
}

// servePprof starts the net/http/pprof handlers on their own listener and
// mux — never on the public API address, so profiling stays reachable only
// where the operator points it (typically localhost). The debug server
// lives for the life of the process; it needs no drain.
func servePprof(addr string, logger *slog.Logger) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("pprof serving", "addr", l.Addr().String())
	go func() {
		if err := http.Serve(l, mux); err != nil {
			logger.Warn("pprof server stopped", "err", err)
		}
	}()
	return nil
}

func loadKB(path string, gen int, seed int64) (*aida.KB, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return aida.LoadKB(f)
	case gen > 0:
		return wiki.Generate(wiki.Config{Seed: seed, Entities: gen}).KB, nil
	default:
		return nil, fmt.Errorf("provide -kb <file> or -gen <entities>")
	}
}
