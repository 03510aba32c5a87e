package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Multi-tenant admission control: tenants are named API keys with a
// token-bucket request rate and a max-concurrent-request quota, loaded
// from a JSON file (the -tenants flag of cmd/aidaserver) and
// hot-reloadable on SIGHUP. With no registry configured the server stays
// open, exactly as before; with one, every non-exempt endpoint requires a
// known key and an over-quota request is rejected with 429 + Retry-After
// before any annotation work is scheduled. Quotas shape admission only —
// an admitted request's response bytes are identical with or without them.

// TenantConfig is one tenant's entry in the tenants file.
type TenantConfig struct {
	// Name identifies the tenant in stats, logs and Prometheus labels.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-API-Key: <key>".
	Key string `json:"key"`
	// RatePerSec refills the tenant's token bucket, in requests per
	// second (fractional rates are fine: 0.1 = one request per 10s).
	// 0 leaves the rate unlimited.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the bucket capacity — how many requests may arrive
	// back-to-back before the rate applies. Defaults to ceil(RatePerSec),
	// minimum 1.
	Burst int `json:"burst"`
	// MaxConcurrent caps the tenant's simultaneously in-flight requests
	// (streaming batches hold their slot until the stream ends). 0 leaves
	// concurrency unlimited.
	MaxConcurrent int `json:"max_concurrent"`
}

// tenantsFile is the on-disk shape of the -tenants config.
type tenantsFile struct {
	Tenants []TenantConfig `json:"tenants"`
}

// tenant is one tenant's runtime state: its current config, a token
// bucket, and monotonic counters. Counters and in-flight state survive
// hot reloads; the bucket is re-seeded when the tenant's limits change.
type tenant struct {
	mu     sync.Mutex // guards cfg, tokens, last
	cfg    TenantConfig
	tokens float64   // tokens currently in the bucket
	last   time.Time // last refill instant

	inFlight  atomic.Int64
	requests  atomic.Int64 // admission attempts (admitted + throttled)
	throttled atomic.Int64 // rejected with 429
}

// admit runs the tenant's admission checks in quota order — concurrency
// first (it is the cheaper check and releasing is unconditional on the
// rate path), then the token bucket. On refusal it reports the suggested
// Retry-After. release must be called exactly once iff ok.
func (t *tenant) admit(now time.Time) (ok bool, retryAfter time.Duration) {
	t.requests.Add(1)
	t.mu.Lock()
	max := t.cfg.MaxConcurrent
	t.mu.Unlock()
	if max > 0 && t.inFlight.Add(1) > int64(max) {
		t.inFlight.Add(-1)
		t.throttled.Add(1)
		// No token was spent; retry as soon as a slot frees. One second is
		// the finest granularity Retry-After offers.
		return false, time.Second
	}
	if wait, ok := t.takeToken(now); !ok {
		if max > 0 {
			t.inFlight.Add(-1)
		}
		t.throttled.Add(1)
		return false, wait
	}
	if max <= 0 {
		t.inFlight.Add(1)
	}
	return true, 0
}

// release returns the tenant's concurrency slot after an admitted request
// finishes.
func (t *tenant) release() { t.inFlight.Add(-1) }

// takeToken refills the bucket for the elapsed time and spends one token.
// When the bucket is empty it reports how long until the next token.
func (t *tenant) takeToken(now time.Time) (wait time.Duration, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.RatePerSec <= 0 {
		return 0, true
	}
	burst := float64(t.cfg.Burst)
	if elapsed := now.Sub(t.last).Seconds(); elapsed > 0 {
		t.tokens = math.Min(burst, t.tokens+float64(elapsed*t.cfg.RatePerSec))
	}
	// Monotonic clocks can read the same instant twice; never move last
	// backwards.
	if now.After(t.last) {
		t.last = now
	}
	if t.tokens >= 1 {
		t.tokens--
		return 0, true
	}
	return time.Duration((1 - t.tokens) / t.cfg.RatePerSec * float64(time.Second)), false
}

// snapshotStats reads the tenant's counters and effective limits.
func (t *tenant) snapshotStats() TenantStats {
	t.mu.Lock()
	cfg := t.cfg
	t.mu.Unlock()
	return TenantStats{
		Requests:      t.requests.Load(),
		Throttled:     t.throttled.Load(),
		InFlight:      t.inFlight.Load(),
		RatePerSec:    cfg.RatePerSec,
		Burst:         cfg.Burst,
		MaxConcurrent: cfg.MaxConcurrent,
	}
}

// TenantStats is one tenant's row in GET /v1/stats: monotonic admission
// counters plus the currently effective limits (so a hot reload is
// observable without reading the file).
type TenantStats struct {
	Requests      int64   `json:"requests"`
	Throttled     int64   `json:"throttled"`
	InFlight      int64   `json:"in_flight"`
	RatePerSec    float64 `json:"rate_per_sec"`
	Burst         int     `json:"burst"`
	MaxConcurrent int     `json:"max_concurrent"`
}

// tenantTable is one immutable generation of the registry: lookup by key,
// plus the stable name order for stats and metrics.
type tenantTable struct {
	byKey  map[string]*tenant
	names  []string // sorted
	byName map[string]*tenant
}

// Tenants is the hot-reloadable tenant registry. Lookups are lock-free
// (an atomic pointer to the current table); Reload builds a new table and
// swaps it in, carrying over the runtime state of tenants that keep their
// name so counters and in-flight accounting survive the reload.
type Tenants struct {
	path     string
	reloadMu sync.Mutex // serializes Reload; lookups never take it
	table    atomic.Pointer[tenantTable]
}

// LoadTenants reads a tenants file and returns the registry bound to that
// path; Reload re-reads the same path (cmd/aidaserver wires it to SIGHUP).
func LoadTenants(path string) (*Tenants, error) {
	t := &Tenants{path: path}
	if _, err := t.Reload(); err != nil {
		return nil, err
	}
	return t, nil
}

// NewTenants builds a registry directly from configs (no file, no Reload
// path) — the embedding and testing entry point.
func NewTenants(cfgs []TenantConfig) (*Tenants, error) {
	t := &Tenants{}
	table, err := t.build(cfgs)
	if err != nil {
		return nil, err
	}
	t.table.Store(table)
	return t, nil
}

// Reload re-reads the registry's file and atomically swaps the new config
// in. On any error — unreadable file, malformed JSON, invalid tenant —
// the serving table is left untouched, so a bad push cannot take the
// limits down. It returns the number of tenants now serving.
func (t *Tenants) Reload() (int, error) {
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	if t.path == "" {
		return 0, fmt.Errorf("tenant registry not backed by a file")
	}
	raw, err := os.ReadFile(t.path)
	if err != nil {
		return 0, fmt.Errorf("read tenants file: %w", err)
	}
	var file tenantsFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return 0, fmt.Errorf("parse tenants file %s: %w", t.path, err)
	}
	table, err := t.build(file.Tenants)
	if err != nil {
		return 0, fmt.Errorf("tenants file %s: %w", t.path, err)
	}
	t.table.Store(table)
	return len(table.names), nil
}

// build validates configs into a fresh table, reusing the runtime state
// of same-named tenants from the current table. A renamed tenant starts
// fresh; a re-keyed or re-limited tenant keeps its counters but has its
// bucket re-seeded full at the new burst.
func (t *Tenants) build(cfgs []TenantConfig) (*tenantTable, error) {
	table := &tenantTable{
		byKey:  make(map[string]*tenant, len(cfgs)),
		byName: make(map[string]*tenant, len(cfgs)),
	}
	prev := t.table.Load()
	for i, cfg := range cfgs {
		if cfg.Name == "" {
			return nil, fmt.Errorf("tenant %d: empty name", i)
		}
		if cfg.Key == "" {
			return nil, fmt.Errorf("tenant %q: empty key", cfg.Name)
		}
		if cfg.RatePerSec < 0 || cfg.Burst < 0 || cfg.MaxConcurrent < 0 {
			return nil, fmt.Errorf("tenant %q: negative limit", cfg.Name)
		}
		if _, dup := table.byName[cfg.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant name %q", cfg.Name)
		}
		if _, dup := table.byKey[cfg.Key]; dup {
			return nil, fmt.Errorf("tenant %q: key already assigned", cfg.Name)
		}
		if cfg.Burst == 0 && cfg.RatePerSec > 0 {
			cfg.Burst = int(math.Ceil(cfg.RatePerSec))
		}
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
		tn := &tenant{}
		if prev != nil {
			if old, ok := prev.byName[cfg.Name]; ok {
				tn = old
			}
		}
		tn.mu.Lock()
		tn.cfg = cfg
		// A full bucket at the new burst: a reload must never owe the
		// tenant a cold start, and carrying fractional tokens across a
		// limit change has no meaningful semantics.
		tn.tokens = float64(cfg.Burst)
		tn.last = time.Now()
		tn.mu.Unlock()
		table.byKey[cfg.Key] = tn
		table.byName[cfg.Name] = tn
		table.names = append(table.names, cfg.Name)
	}
	sort.Strings(table.names)
	return table, nil
}

// lookup resolves an API key to its tenant (nil if unknown).
func (t *Tenants) lookup(key string) *tenant {
	if key == "" {
		return nil
	}
	table := t.table.Load()
	if table == nil {
		return nil
	}
	return table.byKey[key]
}

// Stats snapshots every tenant's counters, keyed by tenant name.
func (t *Tenants) Stats() map[string]TenantStats {
	table := t.table.Load()
	if table == nil {
		return nil
	}
	out := make(map[string]TenantStats, len(table.names))
	for _, name := range table.names {
		out[name] = table.byName[name].snapshotStats()
	}
	return out
}

// Names returns the tenant names in stable (sorted) order, for the
// Prometheus exposition.
func (t *Tenants) Names() []string {
	table := t.table.Load()
	if table == nil {
		return nil
	}
	return table.names
}

// apiKey extracts the presented API key: "Authorization: Bearer <key>"
// wins, "X-API-Key: <key>" is the curl-friendly fallback.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return r.Header.Get("X-API-Key")
}

// openEndpoint reports whether a path stays reachable without an API key
// even on a tenanted server: liveness probes, the observability scrape
// and the demo page are operator surfaces, not tenant traffic. (The demo
// page itself is static; the annotation calls it makes are tenant
// traffic and need a key.)
func openEndpoint(path string) bool {
	return path == "/healthz" || path == "/v1/stats" || path == "/demo"
}

// tenanted is the admission middleware. Without a registry it is a
// no-op, preserving the open-server behavior; with one it authenticates
// the key, applies the tenant's quotas, and attributes the request to the
// tenant in the request log via the returned name.
func (s *Server) tenanted(next http.Handler) http.Handler {
	reg := s.cfg.Tenants
	if reg == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if openEndpoint(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		tn := reg.lookup(apiKey(r))
		if tn == nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="aida"`)
			writeError(w, http.StatusUnauthorized, "unknown or missing API key")
			return
		}
		tn.mu.Lock()
		name := tn.cfg.Name
		tn.mu.Unlock()
		if lw, ok := w.(*loggingWriter); ok {
			lw.tenant = name
		}
		ok, retryAfter := tn.admit(time.Now())
		if !ok {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over quota; retry after the Retry-After delay", name))
			return
		}
		defer tn.release()
		next.ServeHTTP(w, r)
	})
}

// retryAfterSeconds renders a wait as whole Retry-After seconds, rounding
// up so the client never retries into a still-empty bucket, with a floor
// of 1 (0 would invite a tight retry loop).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
