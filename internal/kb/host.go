package kb

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// Remote KB hosting, server side. A StoreHost serves one shard's slice of
// a Store's read surface over HTTP so a fleet of processes can together
// hold a KB too big for one machine. The protocol carries raw dictionary
// rows (entity + anchor count), never priors: the remote router
// materializes candidates through the same candidatesFrom arithmetic as
// the in-process KB, which is what keeps fleet output byte-identical.
//
// Every response carries the serving store's content fingerprint in the
// X-Aida-Kb-Fingerprint header; routers reject responses whose hash does
// not match the fleet's (a replica serving different KB content must never
// contribute bytes to an annotation).
//
// The wire format is gob: float64 values (IDF tables, keyphrase weights)
// round-trip bit-exactly, mirroring the KB's own snapshot encoding.

// StorePathPrefix is the URL prefix the store endpoints live under, on
// both the shard host and the dialing router.
const StorePathPrefix = "/v1/store"

// FingerprintHeader carries the serving store's content hash (16 hex
// digits) on every store response.
const FingerprintHeader = "X-Aida-Kb-Fingerprint"

// gobContentType is the media type of the gob request/response bodies.
const gobContentType = "application/x-gob"

// maxHostBatch bounds the ids/surfaces accepted per batched request; a
// router never needs more per round trip, so anything larger is a bug.
const maxHostBatch = 1 << 16

// IDFTabler is the optional Store extension a shard host requires: the
// global IDF side tables, enumerable so they can be replicated to remote
// routers at dial time.
type IDFTabler interface {
	IDFTables() (phrase, word map[string]float64)
}

// IDFTables returns the KB's global IDF side tables. The returned maps are
// shared and must not be modified.
func (k *KB) IDFTables() (phrase, word map[string]float64) {
	return k.phraseIDF, k.wordIDF
}

// HostFaulter is an optional Store extension consulted by StoreHost before
// serving each operation. A non-nil error fails the request with status
// 500; implementations may also sleep (latency, hangs) before returning.
// The production stores never implement it — it exists so conformance
// harnesses (internal/kbtest.FaultStore) can inject faults into a real
// shard host without a second HTTP stack.
type HostFaulter interface {
	HostFault(ctx context.Context, op string) error
}

// NameRow is one dictionary row on the wire: a surface refers to Entity
// with Count anchor occurrences. Rows are ordered by ascending entity id —
// the dictionary's own layout — and the router recomputes priors from the
// counts, so remote candidates are byte-identical to local ones.
type NameRow struct {
	Entity EntityID
	Count  int
}

// candidatesFromRows materializes candidates from wire rows with the exact
// arithmetic of the unsharded KB (same integer total, same divisions, same
// comparator — see candidatesFrom).
func candidatesFromRows(rows []NameRow) []Candidate {
	if len(rows) == 0 {
		return nil
	}
	entries := make([]nameEntry, len(rows))
	for i, r := range rows {
		entries[i] = nameEntry{Entity: r.Entity, Count: r.Count}
	}
	return candidatesFrom(entries)
}

// Wire shapes of the store protocol (gob-encoded).

type wireMeta struct {
	Fingerprint uint64
	NumEntities int
	Shard       int // shard index this host serves
	Shards      int // fleet width
}

type wireIDsRequest struct{ IDs []EntityID }

type wireEntities struct{ Entities []Entity }

type wireSurfacesRequest struct{ Surfaces []string }

type wireRows struct{ Rows [][]NameRow }

type wireNames struct {
	Names []string
	More  bool
}

type wireIDF struct{ Phrase, Word map[string]float64 }

type wireEntityByName struct {
	ID EntityID
	OK bool
}

// StoreHost serves shard `shard` of a fleet of `shards` processes from any
// Store holding the repository content. Ownership is enforced, not
// assumed: requests for entities or dictionary rows the shard does not own
// are rejected, so a mis-wired shard map fails loudly instead of serving
// misrouted data.
type StoreHost struct {
	store  Store
	shard  int
	shards int
	names  []string // sorted dictionary keys owned by this shard
	idfP   map[string]float64
	idfW   map[string]float64
}

// NewStoreHost wraps a store as shard `shard` of `shards`. The store must
// implement IDFTabler (a *KB does, directly or as a ShardedKB view) so
// routers can replicate the global IDF tables.
func NewStoreHost(s Store, shard, shards int) (*StoreHost, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("kb: invalid shard host position %d/%d", shard, shards)
	}
	tab, ok := s.(IDFTabler)
	if !ok {
		return nil, fmt.Errorf("kb: store %T cannot host shards: it does not expose IDF tables", s)
	}
	h := &StoreHost{store: s, shard: shard, shards: shards}
	h.idfP, h.idfW = tab.IDFTables()
	for _, name := range s.Names() {
		if NameShard(name, shards) == shard {
			h.names = append(h.names, name)
		}
	}
	return h, nil
}

// Shard returns the (index, fleet width) position this host serves.
func (h *StoreHost) Shard() (shard, shards int) { return h.shard, h.shards }

// NumNames reports how many dictionary rows this shard owns (for logs and
// placement planning).
func (h *StoreHost) NumNames() int { return len(h.names) }

// Handler returns the HTTP handler of the store read surface, rooted at
// StorePathPrefix. Mount it on any mux that forwards /v1/store/* intact.
func (h *StoreHost) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+StorePathPrefix+"/meta", h.op("meta", h.handleMeta))
	mux.HandleFunc("POST "+StorePathPrefix+"/entities", h.op("entities", h.handleEntities))
	mux.HandleFunc("GET "+StorePathPrefix+"/entity-by-name", h.op("entity-by-name", h.handleEntityByName))
	mux.HandleFunc("POST "+StorePathPrefix+"/rows", h.op("rows", h.handleRows))
	mux.HandleFunc("GET "+StorePathPrefix+"/names", h.op("names", h.handleNames))
	mux.HandleFunc("GET "+StorePathPrefix+"/idf", h.op("idf", h.handleIDF))
	return mux
}

// op wraps a store endpoint with the fault hook (conformance harnesses
// inject latency, hangs and transient errors here) and the fingerprint
// header every response must carry.
func (h *StoreHost) op(name string, fn func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if f, ok := h.store.(HostFaulter); ok {
			if err := f.HostFault(r.Context(), name); err != nil {
				http.Error(w, "store fault: "+err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set(FingerprintHeader, strconv.FormatUint(h.store.Fingerprint(), 16))
		fn(w, r)
	}
}

// respond gob-encodes out as the response body. Encoding into a buffer
// first keeps a marshal failure a clean 500 instead of a torn body.
func (h *StoreHost) respond(w http.ResponseWriter, out any) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", gobContentType)
	w.Write(buf.Bytes())
}

// decode reads a gob request body under the batch cap.
func decode[T any](w http.ResponseWriter, r *http.Request, v *T) bool {
	if err := gob.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(v); err != nil {
		http.Error(w, "malformed request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (h *StoreHost) handleMeta(w http.ResponseWriter, r *http.Request) {
	h.respond(w, wireMeta{
		Fingerprint: h.store.Fingerprint(),
		NumEntities: h.store.NumEntities(),
		Shard:       h.shard,
		Shards:      h.shards,
	})
}

func (h *StoreHost) handleEntities(w http.ResponseWriter, r *http.Request) {
	var req wireIDsRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.IDs) > maxHostBatch {
		http.Error(w, fmt.Sprintf("batch of %d ids exceeds the limit of %d", len(req.IDs), maxHostBatch), http.StatusBadRequest)
		return
	}
	out := wireEntities{Entities: make([]Entity, len(req.IDs))}
	for i, id := range req.IDs {
		if id < 0 || int(id) >= h.store.NumEntities() {
			http.Error(w, fmt.Sprintf("entity id %d out of range [0,%d)", id, h.store.NumEntities()), http.StatusBadRequest)
			return
		}
		if EntityShard(id, h.shards) != h.shard {
			http.Error(w, fmt.Sprintf("entity %d belongs to shard %d, not %d (misrouted request)",
				id, EntityShard(id, h.shards), h.shard), http.StatusBadRequest)
			return
		}
		out.Entities[i] = *h.store.Entity(id)
	}
	h.respond(w, out)
}

func (h *StoreHost) handleEntityByName(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	id, ok := h.store.EntityByName(name)
	// Claim only entities this shard owns; the router fans out in shard
	// order, so exactly the owning host answers.
	if ok && EntityShard(id, h.shards) != h.shard {
		ok = false
	}
	if !ok {
		id = 0
	}
	h.respond(w, wireEntityByName{ID: id, OK: ok})
}

func (h *StoreHost) handleRows(w http.ResponseWriter, r *http.Request) {
	var req wireSurfacesRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Surfaces) > maxHostBatch {
		http.Error(w, fmt.Sprintf("batch of %d surfaces exceeds the limit of %d", len(req.Surfaces), maxHostBatch), http.StatusBadRequest)
		return
	}
	out := wireRows{Rows: make([][]NameRow, len(req.Surfaces))}
	for i, key := range req.Surfaces {
		if NameShard(key, h.shards) != h.shard {
			http.Error(w, fmt.Sprintf("surface %q belongs to shard %d, not %d (misrouted request)",
				key, NameShard(key, h.shards), h.shard), http.StatusBadRequest)
			return
		}
		out.Rows[i] = h.rows(key)
	}
	h.respond(w, out)
}

// rows reconstructs the raw dictionary row of a normalized surface from
// the store's candidate surface (counts are preserved verbatim; priors are
// derived, so they never travel). Rows are ordered by ascending entity id,
// the dictionary's own layout.
func (h *StoreHost) rows(key string) []NameRow {
	cands := h.store.Candidates(key)
	if len(cands) == 0 {
		return nil
	}
	rows := make([]NameRow, len(cands))
	for i, c := range cands {
		rows[i] = NameRow{Entity: c.Entity, Count: c.Count}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Entity < rows[j].Entity })
	return rows
}

func (h *StoreHost) handleNames(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := maxHostBatch
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			http.Error(w, fmt.Sprintf("invalid limit %q", raw), http.StatusBadRequest)
			return
		}
		if n < limit {
			limit = n
		}
	}
	// Resume strictly after the cursor; names are sorted, so the cursor is
	// just the last name of the previous page.
	start := sort.SearchStrings(h.names, q.Get("after"))
	if after := q.Get("after"); start < len(h.names) && h.names[start] == after {
		start++
	}
	end := start + limit
	if end > len(h.names) {
		end = len(h.names)
	}
	h.respond(w, wireNames{Names: h.names[start:end], More: end < len(h.names)})
}

func (h *StoreHost) handleIDF(w http.ResponseWriter, r *http.Request) {
	h.respond(w, wireIDF{Phrase: h.idfP, Word: h.idfW})
}
