// Package server implements the long-running HTTP annotation service: one
// process loads the knowledge base once, holds one aida.System, and serves
// JSON annotation, relatedness and observability endpoints. Responses are byte-identical to the in-process
// Annotate output for the same KB at any parallelism, so replicas behind a
// load balancer agree byte-for-byte.
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST /v1/annotate        annotate one document (JSON or ?format=html)
//	POST /v1/annotate/batch  annotate many documents (JSON array or NDJSON stream)
//	GET  /v1/relatedness     entity-entity relatedness under one measure
//	GET  /v1/stats           server + KB counters (JSON or Prometheus text)
//	POST /v1/admin/kb/delta  apply a live KB delta without restart
//	GET  /demo               static browser demo driving the API
//	GET  /healthz            liveness
//
// Requests are traced (X-Request-ID accepted or generated, echoed on the
// response, logged, embedded in error bodies) and, when a tenant registry
// is configured, admission-controlled per tenant (API-key auth,
// token-bucket rates, max-concurrent quotas, 429 + Retry-After).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"strings"

	"aida"
	"aida/internal/kb"
	"aida/internal/kb/live"
)

// Config bounds and wires a Server. The zero value is usable: every field
// falls back to the default documented on it.
type Config struct {
	// MaxBodyBytes caps the request body size (default 8 MiB). Larger
	// bodies are rejected with 413.
	MaxBodyBytes int64
	// MaxBatchDocs caps the number of documents per batch request
	// (default 1024). Larger batches are rejected with 413.
	MaxBatchDocs int
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
	// ShardHost, when set, mounts the remote KB read surface under
	// /v1/store/ (the -shard-host flag of cmd/aidaserver): this process
	// serves its shard of the KB to remote routers alongside — or instead
	// of — annotation traffic.
	ShardHost *kb.StoreHost
	// DeltaJournal, when set, records every delta applied through
	// POST /v1/admin/kb/delta so a restarted process can replay it (the
	// -delta-journal flag of cmd/aidaserver). Journal failures are
	// reported in the response but never roll back an applied delta.
	DeltaJournal *live.Journal
	// Tenants, when set, turns on multi-tenant admission control (the
	// -tenants flag of cmd/aidaserver): every endpoint except /healthz,
	// /v1/stats and /demo requires a known API key, and each tenant's
	// token-bucket rate and max-concurrent quotas are enforced with 429 +
	// Retry-After before any annotation work is scheduled. Nil keeps the
	// server open, exactly as before.
	Tenants *Tenants
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchDocs <= 0 {
		c.MaxBatchDocs = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// endpoints are the routed paths, in the order counters are reported. The
// store endpoints (shard-host mode) are counted together under their
// prefix — they are one logical surface with per-operation subpaths.
var endpoints = []string{
	"/v1/annotate",
	"/v1/annotate/batch",
	"/v1/relatedness",
	"/v1/stats",
	"/v1/admin/kb/delta",
	"/v1/store",
	"/demo",
	"/healthz",
}

// statusClientClosedRequest is the (nginx-convention) status logged when a
// request is abandoned because the client went away; nothing is written to
// the wire, as there is no client left to read it.
const statusClientClosedRequest = 499

// Server is the HTTP front-end over one shared aida.System. All state it
// adds on top of the system is monotonic counters, so a Server is safe for
// concurrent use by construction.
type Server struct {
	sys   *aida.System
	cfg   Config
	log   *slog.Logger
	start time.Time

	requests   atomic.Int64 // HTTP requests served (any endpoint)
	documents  atomic.Int64 // documents annotated
	canceled   atomic.Int64 // requests abandoned because the client disconnected
	byEndpoint map[string]*atomic.Int64
	byLatency  map[string]*latencyHist
}

// New wraps a system in a Server; every request is served by that one
// system.
func New(sys *aida.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{sys: sys, cfg: cfg, log: cfg.Logger, start: time.Now(),
		byEndpoint: make(map[string]*atomic.Int64, len(endpoints)),
		byLatency:  make(map[string]*latencyHist, len(endpoints))}
	for _, e := range endpoints {
		s.byEndpoint[e] = new(atomic.Int64)
		s.byLatency[e] = new(latencyHist)
	}
	return s
}

// noteCanceled records a request abandoned mid-flight because its context
// was canceled (client disconnect or shutdown): the cancellation counter
// moves and the access log shows status 499. It reports whether err was in
// fact a cancellation; any other error is left to the caller.
func (s *Server) noteCanceled(w http.ResponseWriter, r *http.Request, err error) bool {
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	s.canceled.Add(1)
	s.log.Info("request canceled", "path", r.URL.Path, "err", err)
	if lw, ok := w.(*loggingWriter); ok {
		lw.status = statusClientClosedRequest
	}
	return true
}

// Handler returns the service's routing handler with the middleware
// chain applied, outermost first: trace (X-Request-ID) → request
// logging/counting → tenant auth + quotas → route. Tracing sits outside
// logging and admission so a throttled or rejected request still carries
// its id on the response, in its error body and on the log line.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/annotate", s.handleAnnotate)
	mux.HandleFunc("POST /v1/annotate/batch", s.handleAnnotateBatch)
	mux.HandleFunc("GET /v1/relatedness", s.handleRelatedness)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/admin/kb/delta", s.handleDeltaApply)
	mux.HandleFunc("GET /demo", s.handleDemo)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.ShardHost != nil {
		mux.Handle(kb.StorePathPrefix+"/", s.cfg.ShardHost.Handler())
	}
	return s.traced(s.logged(s.tenanted(mux)))
}

// Serve accepts connections on l until ctx is cancelled, then drains
// in-flight requests for at most drain before forcing connections closed.
// It returns nil on a clean (cancelled and drained) exit.
func (s *Server) Serve(ctx context.Context, l net.Listener, drain time.Duration) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("shutting down", "drain", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// Drain timed out: force lingering connections (e.g. a slow
		// NDJSON stream) closed so embedders don't leak them.
		hs.Close()
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// logged wraps next with request counting (total and per endpoint) and
// structured access logging.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		path := r.URL.Path
		if strings.HasPrefix(path, kb.StorePathPrefix+"/") {
			path = kb.StorePathPrefix
		}
		if c := s.byEndpoint[path]; c != nil {
			c.Add(1)
		}
		lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(lw, r)
		if h := s.byLatency[path]; h != nil {
			h.observe(time.Since(t0))
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", lw.status,
			"bytes", lw.bytes,
			"duration_ms", float64(time.Since(t0).Microseconds()) / 1000,
			"remote", r.RemoteAddr,
			"request_id", requestID(r.Context()),
		}
		if lw.tenant != "" {
			attrs = append(attrs, "tenant", lw.tenant)
		}
		s.log.Info("request", attrs...)
	})
}

// loggingWriter records the status and byte count of a response, plus the
// tenant the admission layer attributed the request to. Flush is
// forwarded so NDJSON streaming works through the middleware.
type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	tenant string
}

func (w *loggingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *loggingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errorResponse is the body of every non-2xx response. RequestID repeats
// the response's X-Request-ID so a pasted error body alone is enough to
// find the request's log line.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes the JSON error body. The trace id is read back from
// the response header the traced middleware set, so every call site gets
// attribution without threading the request through.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg, RequestID: w.Header().Get(requestIDHeader)})
}

// decodeBody decodes a JSON request body under the configured size cap.
// It writes the error response itself and reports whether decoding
// succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// clampParallelism resolves a requested per-request parallelism: 0 (the
// default) and anything above GOMAXPROCS become GOMAXPROCS. Requests asking
// for more are clamped, never rejected: parallelism affects scheduling
// only, not results. Negative values pass through untouched: they are a
// client error the option resolution rejects with 400, not a "use the
// default" request.
func clampParallelism(requested int) int {
	if n := runtime.GOMAXPROCS(0); requested == 0 || requested > n {
		return n
	}
	return requested
}
