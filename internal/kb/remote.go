package kb

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Remote KB hosting, client side. A RemoteStore is a kb.Store over a fleet
// of shard hosts (StoreHost processes), routed with the same placement
// functions the shard hosts enforce: entity e lives on shard
// EntityShard(e, N), the dictionary row of a surface on NameShard(surface,
// N). Dictionary membership (the recognition hot path) and the global IDF
// tables are mirrored locally at dial time, while entities and candidate
// rows are fetched on demand, batched per shard (scatter-gather), and
// cached forever: the KB is immutable, so a fetched value never goes stale.
//
// Every fetch is hedged and fault-tolerant: a request that has not
// answered within HedgeAfter is raced against the next replica, an error
// or fingerprint mismatch fails over to the next replica with backoff, and
// only when every endpoint of a shard has failed does the operation give
// up. Candidates are materialized from raw rows through candidatesFrom,
// so a fleet's annotation output is byte-identical to the local KB's.
//
// Store has no error returns, so a shard whose every replica is down
// surfaces as a panic carrying *RemoteError; aida.System converts that
// panic into a request error at the annotation boundary.

const (
	// attemptTimeout bounds each individual endpoint attempt.
	attemptTimeout = 10 * time.Second
	// retryBackoff is the delay before retrying on another endpoint after
	// an error; it doubles per retry.
	retryBackoff = 10 * time.Millisecond
	// namesPageSize bounds the dictionary-mirror pages fetched at dial.
	namesPageSize = 8192
)

// RemoteOptions tune a DialFleet connection. The zero value is usable.
type RemoteOptions struct {
	// Client performs the HTTP requests. Default: a dedicated client with
	// keep-alive connection pooling and HTTP/2 enabled where the transport
	// negotiates it (ForceAttemptHTTP2).
	Client *http.Client
	// HedgeAfter is how long a request may go unanswered before it is
	// raced against the next replica (default 50ms; < 0 disables hedging).
	HedgeAfter time.Duration
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
			ForceAttemptHTTP2:   true,
		}}
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 50 * time.Millisecond
	}
	return o
}

// RemoteStats is a snapshot of a RemoteStore's fetch counters, reported on
// /v1/stats and as Prometheus counters by the serving front-end.
type RemoteStats struct {
	// Shards is the fleet width.
	Shards int `json:"shards"`
	// Requests counts logical store operations sent to the fleet.
	Requests int64 `json:"requests"`
	// Hedges counts speculative duplicate attempts launched because an
	// endpoint exceeded the hedge latency threshold.
	Hedges int64 `json:"hedges"`
	// Retries counts attempts relaunched on another endpoint after an
	// error or fingerprint mismatch.
	Retries int64 `json:"retries"`
	// Failovers counts operations ultimately served by a non-primary
	// endpoint after the primary failed.
	Failovers int64 `json:"failovers"`
	// CachedEntities and CachedRows size the immutable read-through caches.
	CachedEntities int `json:"cached_entities"`
	CachedRows     int `json:"cached_rows"`
}

// RemoteError is the terminal failure of one store operation: every
// endpoint of the shard failed (network error, HTTP error or fingerprint
// mismatch). Store methods panic with it — the pipeline recovers it into a
// request error at the aida.System boundary.
type RemoteError struct {
	Op    string
	Shard int
	Errs  []error
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("kb: remote %s on shard %d failed on all %d endpoint(s): %v",
		e.Op, e.Shard, len(e.Errs), errors.Join(e.Errs...))
}

func (e *RemoteError) Unwrap() []error { return e.Errs }

// RemoteStore is a Store served by a fleet of shard hosts. Immutable KB
// content is cached locally after first fetch; all methods are safe for
// concurrent use.
type RemoteStore struct {
	opts RemoteOptions
	eps  [][]string // per shard, primary first

	fp          uint64
	numEntities int

	names   []string // sorted dictionary mirror
	nameSet map[string]struct{}
	idfP    map[string]float64
	idfW    map[string]float64
	vocab   *Vocab // built from idfW; compiles entities as they are fetched and first scored

	mu       sync.RWMutex
	entities map[EntityID]*Entity
	cands    map[string][]Candidate
	byName   map[string]EntityID

	requests, hedges, retries, failovers atomic.Int64
}

// Compile-time conformance: a RemoteStore is a Store with batched
// candidate materialization.
var _ BulkCandidateStore = (*RemoteStore)(nil)

// DialFleet connects to the shard fleet named by the map: it validates the
// topology (every endpoint reachable, reporting the right shard position
// and one agreed-on content fingerprint), then mirrors the dictionary key
// set and the global IDF tables so recognition and context weighting run
// locally. A fingerprint disagreement anywhere in the fleet is a dial error
// naming the offending endpoint.
func DialFleet(ctx context.Context, m ShardMap, opts RemoteOptions) (*RemoteStore, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	r := &RemoteStore{
		opts:     o,
		eps:      make([][]string, m.NumShards()),
		entities: make(map[EntityID]*Entity),
		cands:    make(map[string][]Candidate),
		byName:   make(map[string]EntityID),
	}
	for i := range r.eps {
		r.eps[i] = m.Endpoints(i)
	}

	// Verify every endpoint of every shard before trusting any of them:
	// the whole fleet must serve one repository, at the right positions.
	for shard, eps := range r.eps {
		for _, ep := range eps {
			meta, err := r.fetchMeta(ctx, ep)
			if err != nil {
				return nil, fmt.Errorf("kb: dial shard %d endpoint %s: %v", shard, ep, err)
			}
			if meta.Shards != len(r.eps) || meta.Shard != shard {
				return nil, fmt.Errorf("kb: dial shard %d endpoint %s: host serves shard %d/%d, want %d/%d (mis-wired shard map?)",
					shard, ep, meta.Shard, meta.Shards, shard, len(r.eps))
			}
			if shard == 0 && ep == eps[0] {
				r.fp, r.numEntities = meta.Fingerprint, meta.NumEntities
			}
			if meta.Fingerprint != r.fp {
				return nil, fmt.Errorf("kb: dial shard %d endpoint %s: KB fingerprint %016x does not match the fleet's %016x — the host serves different repository content",
					shard, ep, meta.Fingerprint, r.fp)
			}
			if meta.NumEntities != r.numEntities {
				return nil, fmt.Errorf("kb: dial shard %d endpoint %s: %d entities, fleet has %d",
					shard, ep, meta.NumEntities, r.numEntities)
			}
		}
	}

	var idf wireIDF
	if err := r.do(ctx, "idf", 0, http.MethodGet, "/idf", nil, nil, &idf); err != nil {
		return nil, fmt.Errorf("kb: dial: replicate IDF tables: %v", err)
	}
	r.idfP, r.idfW = idf.Phrase, idf.Word
	r.vocab = newVocab(r, r.idfW, r.numEntities, false)

	// Mirror the dictionary key set: HasName is the recognition hot path
	// and must never cost a round trip.
	r.nameSet = make(map[string]struct{})
	for shard := range r.eps {
		after := ""
		for {
			var page wireNames
			q := url.Values{"after": {after}, "limit": {strconv.Itoa(namesPageSize)}}
			if err := r.do(ctx, "names", shard, http.MethodGet, "/names", q, nil, &page); err != nil {
				return nil, fmt.Errorf("kb: dial: mirror dictionary of shard %d: %v", shard, err)
			}
			for _, n := range page.Names {
				r.nameSet[n] = struct{}{}
			}
			r.names = append(r.names, page.Names...)
			if !page.More {
				break
			}
			after = page.Names[len(page.Names)-1]
		}
	}
	sort.Strings(r.names)
	return r, nil
}

// fetchMeta reads one endpoint's meta directly (no hedging: dial must see
// every endpoint individually).
func (r *RemoteStore) fetchMeta(ctx context.Context, ep string) (wireMeta, error) {
	var meta wireMeta
	data, err := r.attempt(ctx, ep, http.MethodGet, "/meta", nil, nil, false)
	if err != nil {
		return meta, err
	}
	return meta, gob.NewDecoder(bytes.NewReader(data)).Decode(&meta)
}

// Stats returns a snapshot of the fetch counters and cache sizes.
func (r *RemoteStore) Stats() RemoteStats {
	r.mu.RLock()
	ents, rows := len(r.entities), len(r.cands)
	r.mu.RUnlock()
	return RemoteStats{
		Shards:         len(r.eps),
		Requests:       r.requests.Load(),
		Hedges:         r.hedges.Load(),
		Retries:        r.retries.Load(),
		Failovers:      r.failovers.Load(),
		CachedEntities: ents,
		CachedRows:     rows,
	}
}

// do performs one hedged, fault-tolerant store operation against shard's
// endpoint list and gob-decodes the winning response into out.
func (r *RemoteStore) do(ctx context.Context, op string, shard int, method, path string, query url.Values, reqBody any, out any) error {
	r.requests.Add(1)
	eps := r.eps[shard]
	var body []byte
	if reqBody != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(reqBody); err != nil {
			return fmt.Errorf("kb: encode %s request: %v", op, err)
		}
		body = buf.Bytes()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels losing attempts once a winner returns

	type attemptResult struct {
		idx  int
		data []byte
		err  error
	}
	results := make(chan attemptResult, len(eps))
	next := 0
	launch := func() {
		i := next
		next++
		go func() {
			data, err := r.attempt(ctx, eps[i], method, path, query, body, true)
			results <- attemptResult{idx: i, data: data, err: err}
		}()
	}
	launch()

	var hedgeC <-chan time.Time
	var hedgeT *time.Timer
	if r.opts.HedgeAfter > 0 && len(eps) > 1 {
		hedgeT = time.NewTimer(r.opts.HedgeAfter)
		defer hedgeT.Stop()
		hedgeC = hedgeT.C
	}
	var errs []error
	primaryFailed := false
	outstanding := 1
	backoff := retryBackoff
	for {
		select {
		case res := <-results:
			if res.err == nil {
				if res.idx > 0 && primaryFailed {
					r.failovers.Add(1)
				}
				return gob.NewDecoder(bytes.NewReader(res.data)).Decode(out)
			}
			if res.idx == 0 {
				primaryFailed = true
			}
			outstanding--
			errs = append(errs, fmt.Errorf("%s: %w", eps[res.idx], res.err))
			if next < len(eps) {
				r.retries.Add(1)
				time.Sleep(backoff)
				backoff *= 2
				launch()
				outstanding++
			} else if outstanding == 0 {
				return &RemoteError{Op: op, Shard: shard, Errs: errs}
			}
		case <-hedgeC:
			if next < len(eps) {
				r.hedges.Add(1)
				launch()
				outstanding++
				hedgeT.Reset(r.opts.HedgeAfter)
			} else {
				hedgeC = nil
			}
		}
	}
}

// attempt performs one HTTP exchange with one endpoint, validating status
// and (when checkFP) the response's KB fingerprint header against the
// fleet's. It returns the raw body so hedged duplicates decode nothing.
func (r *RemoteStore) attempt(ctx context.Context, ep, method, path string, query url.Values, body []byte, checkFP bool) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	u := ep + StorePathPrefix + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", gobContentType)
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if checkFP {
		got, err := strconv.ParseUint(resp.Header.Get(FingerprintHeader), 16, 64)
		if err != nil || got != r.fp {
			return nil, fmt.Errorf("KB fingerprint %s does not match the fleet's %016x — replica serves different repository content",
				resp.Header.Get(FingerprintHeader), r.fp)
		}
	}
	return io.ReadAll(resp.Body)
}

// must panics with the operation's RemoteError; Store's read surface has
// no error returns, and a fleet with every replica of a shard down cannot
// answer correctly. aida.System recovers the panic into a request error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// NumEntities returns |E| (from the fleet meta).
func (r *RemoteStore) NumEntities() int { return r.numEntities }

// NumShards returns the fleet width.
func (r *RemoteStore) NumShards() int { return len(r.eps) }

// Fingerprint returns the fleet's agreed-on content hash (verified against
// every response).
func (r *RemoteStore) Fingerprint() uint64 { return r.fp }

// HasName answers from the local dictionary mirror; recognition never
// costs a round trip.
func (r *RemoteStore) HasName(normalized string) bool {
	_, ok := r.nameSet[normalized]
	return ok
}

// Names returns all dictionary keys, sorted (a copy of the dial-time
// mirror).
func (r *RemoteStore) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// PhraseIDF returns the global IDF of a keyphrase (dial-replicated).
func (r *RemoteStore) PhraseIDF(phrase string) float64 { return lowerIDF(r.idfP, phrase) }

// WordIDF returns the global IDF of a keyword (dial-replicated).
func (r *RemoteStore) WordIDF(word string) float64 { return lowerIDF(r.idfW, word) }

// Vocabulary implements Store.
func (r *RemoteStore) Vocabulary() *Vocab { return r.vocab }

// Entity returns the entity with the given id, fetching it from its owning
// shard on first use. It panics on ids outside the repository, matching
// (*KB).Entity.
func (r *RemoteStore) Entity(id EntityID) *Entity {
	if id < 0 || int(id) >= r.numEntities {
		panic(fmt.Sprintf("kb: entity id %d out of range [0,%d)", id, r.numEntities))
	}
	r.mu.RLock()
	e := r.entities[id]
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	must(r.fetchEntities(context.Background(), map[int][]EntityID{EntityShard(id, len(r.eps)): {id}}))
	r.mu.RLock()
	e = r.entities[id]
	r.mu.RUnlock()
	return e
}

// fetchEntities scatters one batched fetch per shard and installs the
// results in the entity cache.
func (r *RemoteStore) fetchEntities(ctx context.Context, byShard map[int][]EntityID) error {
	return scatter(byShard, func(shard int, ids []EntityID) error {
		var resp wireEntities
		if err := r.do(ctx, "entities", shard, http.MethodPost, "/entities", nil, wireIDsRequest{IDs: ids}, &resp); err != nil {
			return err
		}
		if len(resp.Entities) != len(ids) {
			return &RemoteError{Op: "entities", Shard: shard,
				Errs: []error{fmt.Errorf("got %d entities for %d ids", len(resp.Entities), len(ids))}}
		}
		r.mu.Lock()
		for i := range resp.Entities {
			if _, ok := r.entities[ids[i]]; !ok {
				r.entities[ids[i]] = &resp.Entities[i]
			}
		}
		r.mu.Unlock()
		return nil
	})
}

// scatter runs one fetch per shard concurrently (entity ids or dictionary
// keys alike) and returns the first error (the KB is immutable, so
// duplicate installs are benign).
func scatter[K any](byShard map[int][]K, fetch func(shard int, keys []K) error) error {
	if len(byShard) == 1 {
		for shard, keys := range byShard {
			return fetch(shard, keys)
		}
	}
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	for shard, keys := range byShard {
		wg.Add(1)
		go func(shard int, keys []K) {
			defer wg.Done()
			if err := fetch(shard, keys); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(shard, keys)
	}
	wg.Wait()
	return firstErr
}

// EntityByName looks up an entity by canonical name, fanning out to shards
// in shard order (canonical names are globally unique and each host claims
// only the entities it owns, so at most one shard answers). Hits are
// cached.
func (r *RemoteStore) EntityByName(name string) (EntityID, bool) {
	r.mu.RLock()
	id, ok := r.byName[name]
	r.mu.RUnlock()
	if ok {
		return id, true
	}
	for shard := range r.eps {
		var resp wireEntityByName
		must(r.do(context.Background(), "entity-by-name", shard, http.MethodGet, "/entity-by-name",
			url.Values{"name": {name}}, nil, &resp))
		if resp.OK {
			r.mu.Lock()
			r.byName[name] = resp.ID
			r.mu.Unlock()
			return resp.ID, true
		}
	}
	return 0, false
}

// Candidates returns the candidate entities for a surface form, fetching
// the dictionary row from its owning shard on first use. The returned
// slice is shared across calls and must not be modified.
func (r *RemoteStore) Candidates(surface string) []Candidate {
	key := NormalizeName(surface)
	if _, ok := r.nameSet[key]; !ok {
		return nil // dictionary mirror: a miss needs no round trip
	}
	r.mu.RLock()
	c, ok := r.cands[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	must(r.fetchRows(context.Background(), map[int][]string{NameShard(key, len(r.eps)): {key}}))
	r.mu.RLock()
	c = r.cands[key]
	r.mu.RUnlock()
	return c
}

// fetchRows scatters one batched row fetch per shard, materializes the
// candidates through the same arithmetic as the local KB, and installs
// them in the row cache.
func (r *RemoteStore) fetchRows(ctx context.Context, byShard map[int][]string) error {
	return scatter(byShard, func(shard int, keys []string) error {
		var resp wireRows
		if err := r.do(ctx, "rows", shard, http.MethodPost, "/rows", nil, wireSurfacesRequest{Surfaces: keys}, &resp); err != nil {
			return err
		}
		if len(resp.Rows) != len(keys) {
			return &RemoteError{Op: "rows", Shard: shard,
				Errs: []error{fmt.Errorf("got %d rows for %d surfaces", len(resp.Rows), len(keys))}}
		}
		r.mu.Lock()
		for i, key := range keys {
			if _, ok := r.cands[key]; !ok {
				r.cands[key] = candidatesFromRows(resp.Rows[i])
			}
		}
		r.mu.Unlock()
		return nil
	})
}

// CandidatesBulk materializes the candidate lists of many surfaces with at
// most two scatter-gather rounds over the fleet: one batched row fetch per
// shard owning an uncached dictionary row, then one batched entity fetch
// per shard owning an uncached candidate entity. The lists are positionally
// aligned with surfaces and byte-identical to per-surface Candidates calls;
// after it returns, every candidate's Entity is a local cache hit, so
// problem materialization costs no further round trips.
func (r *RemoteStore) CandidatesBulk(surfaces []string) [][]Candidate {
	lists := make([][]Candidate, len(surfaces))
	keys := make([]string, len(surfaces))
	needRows := make(map[int][]string)
	queued := make(map[string]struct{})
	r.mu.RLock()
	for i, s := range surfaces {
		key := NormalizeName(s)
		keys[i] = key
		if _, ok := r.nameSet[key]; !ok {
			continue
		}
		if c, ok := r.cands[key]; ok {
			lists[i] = c
			continue
		}
		if _, dup := queued[key]; dup {
			continue
		}
		queued[key] = struct{}{}
		shard := NameShard(key, len(r.eps))
		needRows[shard] = append(needRows[shard], key)
	}
	r.mu.RUnlock()

	must(r.fetchRows(context.Background(), needRows))

	needEnts := make(map[int][]EntityID)
	queuedEnt := make(map[EntityID]struct{})
	r.mu.RLock()
	for i, key := range keys {
		if lists[i] == nil {
			lists[i] = r.cands[key] // nil for out-of-dictionary surfaces
		}
		for _, c := range lists[i] {
			if _, ok := r.entities[c.Entity]; ok {
				continue
			}
			if _, dup := queuedEnt[c.Entity]; dup {
				continue
			}
			queuedEnt[c.Entity] = struct{}{}
			shard := EntityShard(c.Entity, len(r.eps))
			needEnts[shard] = append(needEnts[shard], c.Entity)
		}
	}
	r.mu.RUnlock()

	must(r.fetchEntities(context.Background(), needEnts))
	return lists
}
